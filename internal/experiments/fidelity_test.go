package experiments

import (
	"testing"

	"lelantus/internal/core"
)

// TestFidelityQuickGridEquivalence is the correctness anchor of the timing
// fidelity: every report of the quick grid, rendered to text, must be
// byte-identical whether the crypto data plane ran or was elided. Under
// -short a crypto-heavy subset stands in for the full grid.
func TestFidelityQuickGridEquivalence(t *testing.T) {
	ids := IDs()
	if testing.Short() {
		ids = []string{"fig9-4KB", "tableI", "fig12"}
	}
	render := func(f core.Fidelity) map[string]string {
		o := DefaultOptions()
		o.Quick = true
		o.Knobs.MemMB = 128
		o.Knobs.Fidelity = f.String()
		out := make(map[string]string, len(ids))
		for _, id := range ids {
			r, err := ByID(o, id)
			if err != nil {
				t.Fatalf("fidelity %v, %s: %v", f, id, err)
			}
			out[id] = r.String()
		}
		return out
	}
	full := render(core.FidelityFull)
	timing := render(core.FidelityTiming)
	for _, id := range ids {
		if full[id] != timing[id] {
			t.Errorf("%s: report diverges between fidelities\n--- full ---\n%s\n--- timing ---\n%s",
				id, full[id], timing[id])
		}
	}
}

// TestScriptInterning pins the cache behaviour: the same (name, huge) pair
// resolves to the same backing Script (shared Ops slice), distinct keys to
// distinct scripts, and a zero-value Options (nil cache) still works.
func TestScriptInterning(t *testing.T) {
	o := DefaultOptions()
	a := o.forkbenchScript(false)
	b := o.forkbenchScript(false)
	if len(a.Ops) == 0 || &a.Ops[0] != &b.Ops[0] {
		t.Error("forkbench script not interned: two builds returned distinct Ops")
	}
	if c := o.forkbenchScript(true); len(c.Ops) > 0 && &c.Ops[0] == &a.Ops[0] {
		t.Error("huge and 4KB forkbench share one cache slot")
	}
	q := o
	q.Quick = true
	if d := q.forkbenchScript(false); len(d.Ops) > 0 && &d.Ops[0] == &a.Ops[0] {
		t.Error("quick and full forkbench share one cache slot")
	}

	var bare Options // nil cache: every call builds fresh
	e := bare.forkbenchScript(false)
	f := bare.forkbenchScript(false)
	if len(e.Ops) == 0 || len(f.Ops) == 0 {
		t.Fatal("nil-cache build returned an empty script")
	}
	if &e.Ops[0] == &f.Ops[0] {
		t.Error("nil cache unexpectedly interned")
	}
}
