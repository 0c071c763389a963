// Package knobs is the one surface for the machine knobs layered on the
// paper's Table III machine (fidelity, persistence strategy, MLP, device
// geometry and memory size) and for the host profiles.
// lelantus-sim and lelantus-bench register these flags here, grid cells
// and the experiment harness stamp them through Apply, and the benchmark
// harness parses its LELANTUS_KNOBS string with RegisterFlags. Parsing,
// range checks and stamping onto sim.Config happen in Apply and nowhere
// else, under one rule: a zero value keeps sim.DefaultConfig's setting and
// a negative or overflowing value is an error.
package knobs

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"lelantus/internal/core"
	"lelantus/internal/sim"
)

// Knobs holds the flag spellings of every machine knob plus the profile
// paths. The zero value is the Table III machine with every beyond-the-
// paper plane off.
type Knobs struct {
	Fidelity   string // full | timing ("" = full)
	Persist    string // strict | phoenix | triad:N ("" = strict)
	MLP        string // off | on ("" = off)
	MSHRs      int    // MSHR registers under MLP (0 = nvm.DefaultMSHRs)
	MLPWorkers int    // page-engine goroutine pool under MLP (0 = GOMAXPROCS)
	Ranks      int    // NVM ranks (0 = default)
	Banks      int    // NVM banks per rank (0 = default)
	MemMB      uint64 // simulated NVM capacity in MiB (0 = Table III 16 GiB)

	// CPUProfile and MemProfile are host profile paths for StartProfiles;
	// Apply ignores them.
	CPUProfile, MemProfile string
}

// RegisterFlags binds every field to its flag on fs. A field's current
// value is the flag's default, and an empty enum shows its spelled
// default, so callers set only the defaults that differ.
func (k *Knobs) RegisterFlags(fs *flag.FlagSet) {
	enum := func(p *string, name, def, usage string) {
		if *p == "" {
			*p = def
		}
		fs.StringVar(p, name, *p, usage)
	}
	enum(&k.Fidelity, "fidelity", "full", "full | timing (timing elides the crypto data plane; measurements are identical)")
	enum(&k.Persist, "persist", "strict", "metadata persistence strategy: strict | phoenix | triad:N")
	enum(&k.MLP, "mlp", "off", "memory-level parallelism: off (serial engine) | on (MSHR-overlapped metadata path); measurements change, traffic does not")
	fs.IntVar(&k.MSHRs, "mshrs", k.MSHRs, "MSHR registers for -mlp=on (0 = default 8)")
	fs.IntVar(&k.MLPWorkers, "mlp-workers", k.MLPWorkers, "goroutine pool for the batched page engines under -mlp=on (0 = all CPUs); output is identical at any setting")
	fs.IntVar(&k.Ranks, "ranks", k.Ranks, "NVM ranks (0 = default 2)")
	fs.IntVar(&k.Banks, "banks", k.Banks, "NVM banks per rank (0 = default 8)")
	fs.Uint64Var(&k.MemMB, "mem", k.MemMB, "simulated NVM capacity in MiB (0 = Table III 16 GiB)")
	fs.StringVar(&k.CPUProfile, "cpuprofile", k.CPUProfile, "write a CPU profile to this file")
	fs.StringVar(&k.MemProfile, "memprofile", k.MemProfile, "write a heap profile to this file on exit")
}

// Apply parses and range-checks every knob, then stamps it onto cfg. On
// error cfg is left untouched, and the error is one line naming the value.
func (k Knobs) Apply(cfg *sim.Config) error {
	fidelity := cfg.Mem.Core.Fidelity
	if k.Fidelity != "" {
		f, err := core.ParseFidelity(k.Fidelity)
		if err != nil {
			return err
		}
		fidelity = f
	}
	persist, err := core.ParsePersist(k.Persist)
	if err != nil {
		return err
	}
	mlpOn, err := core.ParseMLP(k.MLP)
	if err != nil {
		return err
	}
	for _, c := range []struct {
		flag string
		v    int
	}{{"mshrs", k.MSHRs}, {"mlp-workers", k.MLPWorkers}, {"ranks", k.Ranks}, {"banks", k.Banks}} {
		if c.v < 0 {
			return fmt.Errorf("knobs: negative -%s %d (want >= 0; 0 = default)", c.flag, c.v)
		}
	}
	if k.MemMB > ^uint64(0)>>20 {
		return fmt.Errorf("knobs: -mem %d MiB overflows a 64-bit byte count", k.MemMB)
	}

	cfg.Mem.Core.Fidelity = fidelity
	cfg.Mem.Core.Persist = persist
	cfg.Mem.Core.MLP = core.MLPConfig{Enabled: mlpOn, MSHRs: k.MSHRs, Workers: k.MLPWorkers}
	if k.Ranks > 0 {
		cfg.Mem.NVM.Ranks = k.Ranks
	}
	if k.Banks > 0 {
		cfg.Mem.NVM.BanksPerRank = k.Banks
	}
	if k.MemMB > 0 {
		cfg.Mem.MemBytes = k.MemMB << 20
	}
	return nil
}

// StartProfiles starts the optional CPU profile and returns a stop closure
// that finishes it and snapshots the optional heap profile. ok=false means
// a profile file could not be created (a usage-level problem: exit 1
// before any work starts). prog prefixes the diagnostics.
func StartProfiles(prog, cpu, mem string, stderr io.Writer) (stop func(), ok bool) {
	stopCPU := func() {}
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			fmt.Fprintf(stderr, "%s: cpuprofile: %v\n", prog, err)
			return nil, false
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "%s: cpuprofile: %v\n", prog, err)
			f.Close()
			return nil, false
		}
		stopCPU = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	if mem != "" {
		// Fail before the run, not after it, when the path is unwritable.
		f, err := os.Create(mem)
		if err != nil {
			stopCPU()
			fmt.Fprintf(stderr, "%s: memprofile: %v\n", prog, err)
			return nil, false
		}
		f.Close()
	}
	return func() {
		stopCPU()
		if mem == "" {
			return
		}
		f, err := os.Create(mem)
		if err != nil {
			fmt.Fprintf(stderr, "%s: memprofile: %v\n", prog, err)
			return
		}
		defer f.Close()
		runtime.GC() // materialise up-to-date heap statistics
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(stderr, "%s: memprofile: %v\n", prog, err)
		}
	}, true
}
