package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeDoc marshals a Document to a temp file and returns its path.
func writeDoc(t *testing.T, name string, doc Document) string {
	t.Helper()
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// tailDocs builds an old/new pair covering the BenchmarkTailLatency
// percentile columns: the new document's lelantus cell halves read-p99-ns
// (2x speedup), the cow cell keeps it flat, ChainHeavy lacks the metric
// entirely, and OnlyOld exists on one side only. Both notes record the
// same knob set, so the knob check stays silent.
func tailDocs(t *testing.T) (string, string) {
	t.Helper()
	const note = "generated by `make bench-json KNOBS='-fidelity timing'`"
	old := Document{Note: note, Benchmarks: map[string]Result{
		"TailLatency/lelantus": {Iterations: 1, NsPerOp: 100,
			Metrics: map[string]float64{"read-p99-ns": 400, "read-p999-ns": 800}},
		"TailLatency/lelantus-cow": {Iterations: 1, NsPerOp: 100,
			Metrics: map[string]float64{"read-p99-ns": 300, "read-p999-ns": 600}},
		"ChainHeavy/forkbench/lelantus": {Iterations: 1, NsPerOp: 50,
			Metrics: map[string]float64{"sim-ns": 1000}},
		"OnlyOld": {Iterations: 1, NsPerOp: 10,
			Metrics: map[string]float64{"read-p99-ns": 5}},
	}}
	nw := Document{Note: note, Benchmarks: map[string]Result{
		"TailLatency/lelantus": {Iterations: 1, NsPerOp: 90,
			Metrics: map[string]float64{"read-p99-ns": 200, "read-p999-ns": 400}},
		"TailLatency/lelantus-cow": {Iterations: 1, NsPerOp: 95,
			Metrics: map[string]float64{"read-p99-ns": 300, "read-p999-ns": 600}},
		"ChainHeavy/forkbench/lelantus": {Iterations: 1, NsPerOp: 45,
			Metrics: map[string]float64{"sim-ns": 900}},
	}}
	return writeDoc(t, "old.json", old), writeDoc(t, "new.json", nw)
}

func TestComparePercentileMetric(t *testing.T) {
	oldPath, newPath := tailDocs(t)
	var out, errb bytes.Buffer
	if err := compareDocs(&out, &errb, oldPath, newPath, "read-p99-ns", ""); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "read-p99-ns |") {
		t.Fatalf("table header does not name the metric unit:\n%s", got)
	}
	if !strings.Contains(got, "| TailLatency/lelantus | 400 | 200 | 2.00x |") {
		t.Fatalf("missing 2x tail-latency row:\n%s", got)
	}
	if !strings.Contains(got, "| TailLatency/lelantus-cow | 300 | 300 | 1.00x |") {
		t.Fatalf("missing flat tail-latency row:\n%s", got)
	}
	// geomean over the two counted rows: sqrt(2.0 * 1.0) = 1.41x.
	if !strings.Contains(got, "geomean speedup: 1.41x over 2 benchmarks") {
		t.Fatalf("wrong geomean:\n%s", got)
	}
	// ChainHeavy reports sim-ns but not read-p99-ns: warned and skipped.
	if strings.Contains(got, "ChainHeavy") {
		t.Fatalf("metric-less benchmark leaked into the table:\n%s", got)
	}
	warn := errb.String()
	if !strings.Contains(warn, "ChainHeavy/forkbench/lelantus does not report read-p99-ns") {
		t.Fatalf("missing skip warning for metric-less benchmark:\n%s", warn)
	}
	if !strings.Contains(warn, "OnlyOld only in "+oldPath) {
		t.Fatalf("missing unmatched-name warning:\n%s", warn)
	}
}

func TestCompareFilterRestrictsEverything(t *testing.T) {
	oldPath, newPath := tailDocs(t)
	var out, errb bytes.Buffer
	if err := compareDocs(&out, &errb, oldPath, newPath, "read-p99-ns", "TailLatency"); err != nil {
		t.Fatal(err)
	}
	got, warn := out.String(), errb.String()
	if !strings.Contains(got, "geomean speedup: 1.41x over 2 benchmarks") {
		t.Fatalf("filtered geomean wrong:\n%s", got)
	}
	// The filter drops ChainHeavy and OnlyOld before warnings fire, so the
	// run is warning-free.
	if warn != "" {
		t.Fatalf("filtered comparison still warned:\n%s", warn)
	}
}

func TestCompareDefaultNsPerOp(t *testing.T) {
	oldPath, newPath := tailDocs(t)
	var out, errb bytes.Buffer
	if err := compareDocs(&out, &errb, oldPath, newPath, "", "ChainHeavy"); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "ns/op |") {
		t.Fatalf("default comparison should be ns/op:\n%s", got)
	}
	if !strings.Contains(got, "| ChainHeavy/forkbench/lelantus | 50 | 45 | 1.11x |") {
		t.Fatalf("missing ns/op row:\n%s", got)
	}
}

// TestCompareWarnsMixedKnobs pins the knob-set label: documents whose
// notes record different KNOBS strings, or where either records none, get
// exactly one warning line ahead of a table that is still printed; equal
// knob sets get none.
func TestCompareWarnsMixedKnobs(t *testing.T) {
	bench := map[string]Result{"ChainHeavy/forkbench/lelantus": {Iterations: 1, NsPerOp: 50,
		Metrics: map[string]float64{"sim-ns": 1000}}}
	timing := "generated by `make bench-json KNOBS='-fidelity timing'`; compare against BENCH_seed.json"
	mlp := "generated by `make bench-json KNOBS='-fidelity timing -mlp on'`; compare against BENCH_seed.json"
	bare := "generated by `make bench-json`; compare against BENCH_seed.json"
	cases := []struct {
		name, oldNote, newNote string
		want                   string // "" = no knob warning
	}{
		{"same", timing, timing, ""},
		{"different", timing, mlp, "KNOBS='-fidelity timing'"},
		{"old unrecorded", bare, mlp, "records no KNOBS"},
		{"both unrecorded", bare, bare, "records no KNOBS"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			oldPath := writeDoc(t, "old.json", Document{Note: tc.oldNote, Benchmarks: bench})
			newPath := writeDoc(t, "new.json", Document{Note: tc.newNote, Benchmarks: bench})
			var out, errb bytes.Buffer
			if err := compareDocs(&out, &errb, oldPath, newPath, "sim-ns", ""); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out.String(), "| ChainHeavy/forkbench/lelantus | 1000 | 1000 | 1.00x |") {
				t.Fatalf("table missing under a knob warning:\n%s", out.String())
			}
			warn := errb.String()
			n := strings.Count(warn, "benchjson: warning: knob sets differ: ")
			if tc.want == "" {
				if n != 0 {
					t.Fatalf("equal knob sets warned:\n%s", warn)
				}
				return
			}
			if n != 1 || !strings.Contains(warn, tc.want) || !strings.Contains(warn, oldPath) || !strings.Contains(warn, newPath) {
				t.Fatalf("want one knob warning naming %q and both files, got:\n%s", tc.want, warn)
			}
		})
	}
}

func TestCompareErrors(t *testing.T) {
	oldPath, newPath := tailDocs(t)
	var out, errb bytes.Buffer
	if err := compareDocs(&out, &errb, oldPath, newPath, "", "(unclosed"); err == nil ||
		!strings.Contains(err.Error(), "-filter") {
		t.Fatalf("bad filter regexp: got %v, want a -filter error", err)
	}
	if err := compareDocs(&out, &errb, filepath.Join(t.TempDir(), "missing.json"),
		newPath, "", ""); err == nil {
		t.Fatal("missing old document: want an error")
	}
}
