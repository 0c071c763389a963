package knobs

import (
	"flag"
	"reflect"
	"strings"
	"testing"

	"lelantus/internal/core"
	"lelantus/internal/sim"
)

// TestZeroKnobsKeepDefaults pins "0 = default": the zero Knobs (and an
// explicit MemMB of 0) leave the Table III machine exactly as
// sim.DefaultConfig built it, 16 GiB included.
func TestZeroKnobsKeepDefaults(t *testing.T) {
	for _, k := range []Knobs{{}, {MemMB: 0, Fidelity: "full", Persist: "strict", MLP: "off"}} {
		cfg := sim.DefaultConfig(core.Lelantus)
		if err := k.Apply(&cfg); err != nil {
			t.Fatalf("Apply(%+v): %v", k, err)
		}
		want := sim.DefaultConfig(core.Lelantus)
		want.Mem.Core.Persist = core.StrictPersist()
		if !reflect.DeepEqual(cfg, want) {
			t.Fatalf("Apply(%+v) moved a default:\n got %+v\nwant %+v", k, cfg, want)
		}
		if cfg.Mem.MemBytes != 16<<30 {
			t.Fatalf("MemMB 0 gave %d bytes, want the Table III 16 GiB", cfg.Mem.MemBytes)
		}
	}
}

// TestApplyStampsEveryKnob drives the flag path end to end: a flag string
// parsed by RegisterFlags lands on the matching sim.Config fields.
func TestApplyStampsEveryKnob(t *testing.T) {
	var k Knobs
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	k.RegisterFlags(fs)
	args := "-fidelity timing -persist triad:2 -mlp on -mshrs 16 -mlp-workers 3 -ranks 4 -banks 16 -mem 128"
	if err := fs.Parse(strings.Fields(args)); err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig(core.LelantusCoW)
	if err := k.Apply(&cfg); err != nil {
		t.Fatal(err)
	}
	c := cfg.Mem.Core
	if c.Fidelity != core.FidelityTiming || c.Persist.Name() != "triad:2" ||
		c.MLP != (core.MLPConfig{Enabled: true, MSHRs: 16, Workers: 3}) ||
		cfg.Mem.NVM.Ranks != 4 || cfg.Mem.NVM.BanksPerRank != 16 || cfg.Mem.MemBytes != 128<<20 {
		t.Fatalf("%q stamped %+v", args, cfg.Mem)
	}
}

// TestApplyRejectsBadValues pins the range rule: a negative count or a
// capacity whose byte count overflows uint64 is a one-line error naming
// the value, and the config is left untouched.
func TestApplyRejectsBadValues(t *testing.T) {
	cases := []struct {
		k    Knobs
		want string
	}{
		{Knobs{Fidelity: "fast"}, "fast"},
		{Knobs{Persist: "triad:0"}, "triad"},
		{Knobs{MLP: "maybe"}, "maybe"},
		{Knobs{MSHRs: -1}, "-mshrs -1"},
		{Knobs{MLPWorkers: -2}, "-mlp-workers -2"},
		{Knobs{Ranks: -4}, "-ranks -4"},
		{Knobs{Banks: -5}, "-banks -5"},
		{Knobs{MemMB: 1 << 44}, "17592186044416"},
	}
	for _, tc := range cases {
		cfg := sim.DefaultConfig(core.Lelantus)
		err := tc.k.Apply(&cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) || strings.Contains(err.Error(), "\n") {
			t.Errorf("Apply(%+v) = %v, want one line naming %q", tc.k, err, tc.want)
		}
		if !reflect.DeepEqual(cfg, sim.DefaultConfig(core.Lelantus)) {
			t.Errorf("Apply(%+v) failed but changed the config", tc.k)
		}
	}
	cfg := sim.DefaultConfig(core.Lelantus)
	if err := (Knobs{MemMB: 1<<44 - 1}).Apply(&cfg); err != nil || cfg.Mem.MemBytes != (1<<44-1)<<20 {
		t.Fatalf("largest representable -mem: err %v, %d bytes", err, cfg.Mem.MemBytes)
	}
}
