package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"lelantus/internal/grid"
	"lelantus/internal/sim"
)

// declared reads the metric contract from the repository's BENCHMARK.json.
func declared(t *testing.T) (e2e, layer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, m := range bj.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range bj.PerLayer {
		layer[m.Name] = m.Unit
	}
	return e2e, layer
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func runQuick(t *testing.T, workload, trace string) (result, string) {
	t.Helper()
	var out, errb bytes.Buffer
	args := []string{"--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--quick", "--out", t.TempDir()}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("run %v: exit %d: %s", args, code, errb.String())
	}
	text := strings.TrimRight(out.String(), "\n")
	last := text[strings.LastIndexByte(text, '\n')+1:]
	var r result
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		t.Fatalf("last line %q: %v", last, err)
	}
	return r, text
}

// TestQuickRunsEmitEveryMetric runs every workload's reduced cell set, both
// untraced and traced, and checks each emits exactly the metrics
// BENCHMARK.json declares, with their units, and passes its checks.
func TestQuickRunsEmitEveryMetric(t *testing.T) {
	e2e, layer := declared(t)
	for _, w := range workloadNames {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace="+trace, func(t *testing.T) {
				r, text := runQuick(t, w, trace)
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", r.Correct, r.Attempted, r.Failed, text)
				}
				want := e2e
				if trace == "1" {
					want = layer
				}
				for name, unit := range want {
					m, ok := r.Metrics[name]
					if !ok {
						t.Errorf("metric %s missing", name)
					} else if m.Unit != unit {
						t.Errorf("metric %s unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
					}
				}
				for name := range r.Metrics {
					if _, ok := want[name]; !ok {
						t.Errorf("metric %s emitted but not declared", name)
					}
				}
				if trace == "0" {
					// The two end-to-end figures the JSON line cannot carry
					// are printed by name with their units.
					if !strings.Contains(text, "cells_failed_frac=0 ratio") {
						t.Error("cells_failed_frac not printed")
					}
					hasRecovery := strings.Contains(text, "metric recovery_us_geomean ")
					if hasRecovery != (w == "crash-grid") {
						t.Errorf("recovery_us_geomean printed=%v for %s", hasRecovery, w)
					}
					for _, v := range r.Metrics {
						if v.Value <= 0 {
							t.Errorf("end-to-end metric is %v, want > 0", v.Value)
						}
					}
				}
			})
		}
	}
}

func TestBadArgumentsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "fig9-timing", "--trace", "2"},
		{"--workload", "fig9-timing", "--seconds", "0"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 || out.Len() != 0 {
			t.Errorf("run %v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

// TestCheckCatchesPerturbedResult perturbs one simulated result and shows
// the ledger flags it, so the benchmark's checks cannot pass vacuously.
func TestCheckCatchesPerturbedResult(t *testing.T) {
	cs := grid.CellSpec{Workload: "forkbench", Seed: 1, Scheme: "lelantus", Fidelity: "timing", RegionKB: 64, MemMB: memMB}
	cfg, s, err := cs.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunWith(cfg, s)
	if err != nil {
		t.Fatal(err)
	}
	l := newLedger()
	l.observe(cellRun{key: "k", scheme: "lelantus", result: &res})
	same := res
	l.observe(cellRun{key: "k", scheme: "lelantus", result: &same})
	if l.failed != 0 {
		t.Fatalf("an identical result failed: %v", l.reasons)
	}
	bad := res
	bad.NVMWrites++
	l.observe(cellRun{key: "k", scheme: "lelantus", result: &bad})
	if l.failed != 1 || l.attempted != 3 {
		t.Fatalf("perturbed NVMWrites: failed=%d attempted=%d, want 1 and 3", l.failed, l.attempted)
	}
	if err := l.selfCheck(); err != nil {
		t.Fatal(err)
	}
}

func TestTailPercentile(t *testing.T) {
	for n, want := range map[int]int{112: 91, 32: 68, 288: 96, 1000: 99, 21: 52, 16: 100, 5: 100} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestSpanWriterAndSelfTime(t *testing.T) {
	tr := newTracer()
	t0 := tr.epoch
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.record("grid.Coordinator.Run", "", 0, at(0), at(100))
	tr.record("grid.cell", "a", root, at(0), at(60))
	tr.record("grid.cell", "b", root, at(10), at(50)) // overlaps a: covered once
	tr.record("grid.cell", "c", root, at(70), at(90))
	id := tr.begin("pass", "", 0)
	tr.finish(id)

	self := tr.selfTimes()
	if got := self["grid.Coordinator.Run"]; got != 20*time.Millisecond {
		t.Errorf("run self time %v, want 20ms", got)
	}
	if got := self["grid.cell"]; got != 120*time.Millisecond {
		t.Errorf("cell self time %v, want 120ms", got)
	}
	if ds, cells := tr.durations("grid.cell"); len(ds) != 3 || cells != 3 {
		t.Errorf("durations: %d spans over %d cells, want 3 and 3", len(ds), cells)
	}

	var buf bytes.Buffer
	if err := tr.writeJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var got []span
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		got = append(got, s)
	}
	if len(got) != 5 || got[1].Parent != got[0].ID || got[1].Cell != "a" || got[4].Name != "pass" || got[4].End < got[4].Start {
		t.Fatalf("spans round-tripped as %+v", got)
	}
}

// pb is a minimal protobuf encoder for building test profiles.
type pb []byte

func (p pb) varint(field int, v uint64) pb {
	p = binary.AppendUvarint(p, uint64(field)<<3)
	return binary.AppendUvarint(p, v)
}

func (p pb) bytes(field int, b []byte) pb {
	p = binary.AppendUvarint(p, uint64(field)<<3|2)
	p = binary.AppendUvarint(p, uint64(len(b)))
	return append(p, b...)
}

func TestProfileSharesSynthetic(t *testing.T) {
	funcs := []string{
		"lelantus/internal/cache.(*Level).find",
		"crypto/internal/fips140/sha256.blockSHANI",
		"runtime.mallocgc",
		"main.main",
	}
	var prof pb
	prof = prof.bytes(6, nil) // string 0 is ""
	for i, name := range funcs {
		prof = prof.bytes(6, []byte(name))
		fn := id(i)
		prof = prof.bytes(5, pb(nil).varint(1, fn).varint(2, uint64(i+1)))
		// Location i+1: the leaf line is funcs[i], inlined into main.main.
		line := pb(nil).varint(1, fn)
		caller := pb(nil).varint(1, id(3))
		prof = prof.bytes(4, pb(nil).varint(1, fn).bytes(4, line).bytes(4, caller))
	}
	// Samples weighted 5, 3, 2, 0 (packed location ids and values).
	for i, w := range []uint64{5, 3, 2, 0} {
		locs := binary.AppendUvarint(binary.AppendUvarint(nil, id(i)), id(3))
		vals := binary.AppendUvarint(binary.AppendUvarint(nil, w), w*10_000_000)
		prof = prof.bytes(2, pb(nil).bytes(1, locs).bytes(2, vals))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof)
	zw.Close()
	shares, n, err := selfShares(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 || shares["cache"] != 0.5 || shares["crypto"] != 0.3 || shares["runtime"] != 0.2 || shares["other"] != 0 {
		t.Fatalf("samples=%d shares=%v", n, shares)
	}
	if len(shares) != len(hostModules) {
		t.Fatalf("%d shares for %d modules", len(shares), len(hostModules))
	}
}

func id(i int) uint64 { return uint64(i + 1) }

func TestProfileSharesRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	data := make([]byte, 1<<20)
	var sum [32]byte
	for end := time.Now().Add(500 * time.Millisecond); time.Now().Before(end); {
		sum = sha256.Sum256(data)
		data[0] = sum[0]
	}
	pprof.StopCPUProfile()
	shares, n, err := selfShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if n < 10 {
		t.Skipf("only %d samples", n)
	}
	if shares["crypto"] < 0.5 {
		t.Fatalf("hashing loop gave crypto share %.2f over %d samples: %v", shares["crypto"], n, shares)
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"lelantus/internal/ctrcache.(*Cache).Get":      "ctrcache",
		"lelantus/internal/core.(*Engine).ReadLine":    "core",
		"lelantus/internal/experiments.Fig9":           "other",
		"crypto/hmac.(*hmac).Sum":                      "crypto",
		"runtime.memmove":                              "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall": "runtime",
		"sort.Slice": "other",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestQuantile(t *testing.T) {
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-9*math.Max(1, math.Abs(want)) }
	// Symmetric samples: the estimated median is the centre.
	if got := quantile([]float64{5, 1, 4, 2, 3}, 0.5); !near(got, 3) {
		t.Errorf("median of 1..5 = %v, want 3", got)
	}
	if got := quantile([]float64{7, 7, 7, 7}, 0.9); !near(got, 7) {
		t.Errorf("quantile of a constant sample = %v, want 7", got)
	}
	if got := quantile([]float64{3, 9, 1}, 1); got != 9 {
		t.Errorf("p=1 gives %v, want the maximum 9", got)
	}
	// Two clusters of ten with the median in the gap: the estimate moves
	// smoothly when one edge cell slows by 50%.
	var xs []float64
	for i := 0; i < 10; i++ {
		xs = append(xs, 10+float64(i), 100+float64(i))
	}
	base := quantile(xs, 0.5)
	xs[18] *= 1.5 // the slowest small cell: 19 -> 28.5
	if moved := quantile(xs, 0.5) - base; moved <= 0 || moved > 2 {
		t.Errorf("median moved by %v when one edge cell slowed by 9.5", moved)
	}
	// Weights sum to one.
	a, b := 0.9*21, 0.1*21
	if got := regIncBeta(1, a, b) - regIncBeta(0, a, b); !near(got, 1) {
		t.Errorf("total weight %v", got)
	}
	if got := regIncBeta(0.5, 3, 3); !near(got, 0.5) {
		t.Errorf("I_0.5(3,3) = %v, want 0.5", got)
	}
	if got := regIncBeta(0.3, 2, 5); math.Abs(got-0.579825) > 1e-6 { // 1 - 0.7^6 - 6(0.3)(0.7^5)
		t.Errorf("I_0.3(2,5) = %v, want 0.579825", got)
	}
}
