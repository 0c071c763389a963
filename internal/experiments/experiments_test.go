package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func quickOpts() Options {
	o := DefaultOptions()
	o.Quick = true
	o.Knobs.MemMB = 256
	return o
}

func TestFig2Shape(t *testing.T) {
	r, err := Fig2(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	out := r.String()
	if !strings.Contains(out, "4KB(1B)") || !strings.Contains(out, "2MB(whole)") {
		t.Fatalf("missing rows:\n%s", out)
	}
}

func TestTableIII(t *testing.T) {
	r, err := TableIII(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.String(), "60ns read, 150ns write") {
		t.Fatalf("config table wrong:\n%s", r)
	}
}

func TestTableIV(t *testing.T) {
	r, err := TableIV(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"boot", "compile", "forkbench", "redis", "mariadb", "shell"} {
		if !strings.Contains(r.String(), name) {
			t.Fatalf("missing %s:\n%s", name, r)
		}
	}
}

func TestFig11Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	r, err := Fig11(quickOpts(), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(strings.Split(strings.TrimSpace(r.Table.String()), "\n")) < 5 {
		t.Fatalf("sweep too small:\n%s", r)
	}
}

func TestByID(t *testing.T) {
	if _, err := ByID(quickOpts(), "nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
	for _, id := range IDs() {
		switch id {
		case "tableIII", "tableIV":
			if _, err := ByID(quickOpts(), id); err != nil {
				t.Fatalf("%s: %v", id, err)
			}
		}
	}
}

// TestParallelDeterminism is the harness-level determinism guarantee: a
// generator renders byte-identical reports whether its grid runs on one
// worker or on eight. (Every generator consumes index-aligned grid
// results, so the property holds structurally for all of them; this runs
// the cheapest generators that still exercise multi-job grids, After
// hooks and config mutators.)
func TestParallelDeterminism(t *testing.T) {
	gens := map[string]func(Options) (*Report, error){
		"fig2":           Fig2,
		"ablation-wear":  AblationWear,
		"ablation-tlb":   AblationTLB,
		"persist-matrix": PersistMatrix,
	}
	for name, gen := range gens {
		seq := quickOpts()
		seq.Parallel = 1
		par := quickOpts()
		par.Parallel = 8
		r1, err := gen(seq)
		if err != nil {
			t.Fatalf("%s sequential: %v", name, err)
		}
		r8, err := gen(par)
		if err != nil {
			t.Fatalf("%s parallel: %v", name, err)
		}
		if r1.String() != r8.String() {
			t.Fatalf("%s differs between 1 and 8 workers:\n--- 1 worker\n%s\n--- 8 workers\n%s",
				name, r1, r8)
		}
	}
}

// TestPersistMatrixTradeoff pins the axis the persist-matrix experiment
// reports: for every scheme, relaxed strategies must show a lower runtime
// tree-persist count than strict while charging at least as much recovery
// time — lower write overhead is only ever bought with recovery work.
func TestPersistMatrixTradeoff(t *testing.T) {
	r, err := PersistMatrix(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	type cell struct{ treePersists, recoveryUs float64 }
	byKey := make(map[string]cell)
	for _, row := range r.Table.Rows() {
		byKey[row[0]+"/"+row[1]] = cell{
			treePersists: toFloat(t, row[3]),
			recoveryUs:   toFloat(t, row[5]),
		}
	}
	for _, s := range comparedSchemes() {
		strict := byKey["strict/"+s.String()]
		for _, relaxed := range []string{"phoenix", "triad:1", "triad:2"} {
			c, ok := byKey[relaxed+"/"+s.String()]
			if !ok {
				t.Fatalf("missing row %s/%v in:\n%s", relaxed, s, r)
			}
			if c.treePersists >= strict.treePersists {
				t.Errorf("%s/%v: tree persists %.0f, want < strict %.0f", relaxed, s, c.treePersists, strict.treePersists)
			}
			if c.recoveryUs < strict.recoveryUs {
				t.Errorf("%s/%v: recovery %.1f us cheaper than strict %.1f us", relaxed, s, c.recoveryUs, strict.recoveryUs)
			}
		}
	}
}

func toFloat(t *testing.T, s string) float64 {
	t.Helper()
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("non-numeric table cell %q", s)
	}
	return f
}

// TestAllQuickSmoke regenerates every experiment at quick scale — the
// whole harness must stay runnable end to end.
func TestAllQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment; slow")
	}
	o := quickOpts()
	o.Knobs.MemMB = 128
	reports, err := All(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(IDs()) {
		t.Fatalf("got %d reports, want %d", len(reports), len(IDs()))
	}
	for _, r := range reports {
		if r.Table == nil || r.ID == "" {
			t.Fatalf("malformed report %+v", r)
		}
		if len(r.String()) < 40 {
			t.Fatalf("suspiciously empty report %s:\n%s", r.ID, r)
		}
	}
}
