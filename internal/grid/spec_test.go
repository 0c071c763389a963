package grid

import (
	"strings"
	"testing"
)

func TestCellIDStableAndDistinct(t *testing.T) {
	a := CellSpec{Workload: "forkbench", Scheme: "lelantus", Seed: 1, RegionKB: 64}
	if a.ID() != a.ID() {
		t.Fatalf("ID not stable: %s vs %s", a.ID(), a.ID())
	}
	if len(a.ID()) != 16 {
		t.Fatalf("ID %q: want 16 hex chars", a.ID())
	}
	variants := []CellSpec{
		{Workload: "shell", Scheme: "lelantus", Seed: 1, RegionKB: 64},
		{Workload: "forkbench", Scheme: "baseline", Seed: 1, RegionKB: 64},
		{Workload: "forkbench", Scheme: "lelantus", Seed: 2, RegionKB: 64},
		{Workload: "forkbench", Scheme: "lelantus", Seed: 1, RegionKB: 128},
		{Workload: "forkbench", Scheme: "lelantus", Seed: 1, RegionKB: 64, Huge: true},
		{Workload: "forkbench", Scheme: "lelantus", Seed: 1, RegionKB: 64, CrashPoint: 10},
		{Workload: "forkbench", Scheme: "lelantus", Seed: 1, RegionKB: 64, Persist: "phoenix"},
	}
	seen := map[string]bool{a.ID(): true}
	for _, v := range variants {
		if seen[v.ID()] {
			t.Fatalf("cell %+v collides with an earlier spec (ID %s)", v, v.ID())
		}
		seen[v.ID()] = true
	}
}

func TestSpecCellsDeterministicAndResolved(t *testing.T) {
	s := Spec{Workloads: []string{"forkbench"}, Schemes: []string{"lelantus", "baseline"}, RegionKB: 64}
	c1, c2 := s.Cells(), s.Cells()
	if len(c1) != 2 {
		t.Fatalf("got %d cells, want 2", len(c1))
	}
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatalf("cell %d differs between enumerations: %+v vs %+v", i, c1[i], c2[i])
		}
		if c1[i].Fidelity == "" {
			t.Fatalf("cell %d not resolved: empty fidelity", i)
		}
	}
}

func TestSpecHashIgnoresSparseness(t *testing.T) {
	sparse := Spec{Workloads: []string{"forkbench"}}
	explicit := sparse.withDefaults()
	if sparse.Hash() != explicit.Hash() {
		t.Fatalf("sparse spec hash %s != resolved spec hash %s", sparse.Hash(), explicit.Hash())
	}
	other := Spec{Workloads: []string{"shell"}}
	if sparse.Hash() == other.Hash() {
		t.Fatalf("different specs share hash %s", sparse.Hash())
	}
}

func TestSpecValidateRejectsBadAxes(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"bad scheme", Spec{Workloads: []string{"forkbench"}, Schemes: []string{"nope"}, RegionKB: 64}, "scheme"},
		{"bad workload", Spec{Workloads: []string{"nope"}}, "nope"},
		{"bad persist", Spec{Workloads: []string{"forkbench"}, Persist: []string{"nope"}, RegionKB: 64}, "persist"},
		{"duplicate axis value", Spec{Workloads: []string{"forkbench"}, Schemes: []string{"lelantus", "lelantus"}, RegionKB: 64}, "identical"},
		{"negative ranks", Spec{Workloads: []string{"forkbench"}, Ranks: -2, RegionKB: 64}, "-ranks -2"},
		{"negative banks", Spec{Workloads: []string{"forkbench"}, Banks: -3, RegionKB: 64}, "-banks -3"},
		{"mem overflows bytes", Spec{Workloads: []string{"forkbench"}, MemMB: 1 << 44, RegionKB: 64}, "17592186044416"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			if err == nil {
				t.Fatalf("Validate accepted %+v", tc.spec)
			}
			if !strings.Contains(strings.ToLower(err.Error()), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestPresetsValidate(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range Presets() {
		if p.Name == "" || seen[p.Name] {
			t.Fatalf("preset with empty or duplicate name: %+v", p)
		}
		seen[p.Name] = true
		if testing.Short() && p.Name == "schemes-matrix" {
			continue // full-size scripts for six workloads; covered in the long pass
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("preset %s does not validate: %v", p.Name, err)
		}
	}
	if _, err := PresetByName("quick"); err != nil {
		t.Fatalf("PresetByName(quick): %v", err)
	}
	if _, err := PresetByName("nope"); err == nil || !strings.Contains(err.Error(), "quick") {
		t.Fatalf("PresetByName(nope) = %v: want an error listing the valid presets", err)
	}
}
