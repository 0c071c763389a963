// Command perfbench is the repository benchmark. It runs one named
// workload of simulator cells, closed loop, checks that the simulated
// outputs are correct, and prints every metric by name with its unit; the
// last line of its output is one JSON object:
//
//	{"correct": bool, "attempted": n, "failed": n, "metrics": {name: {"value": x, "unit": u}}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with
// tracing off. With --trace 1 the run is split into an untraced and a
// traced phase and the metrics are the per-layer ones: span timings around
// every call the benchmark makes into a module, module shares of a CPU
// profile, the probe plane's simulated-time breakdown, substrate
// microbenchmarks and the tracing overhead. Spans and the CPU profile are
// written under --out.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload fig9-timing --seed 1 --seconds 25 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"lelantus/internal/core"
	"lelantus/internal/metrics"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 3

// workloadNames lists the benchmark's workloads in the order they are
// documented.
var workloadNames = []string{"fig9-timing", "crypto-full", "crash-grid"}

// newBench builds the named workload; quick selects a reduced cell set for
// the benchmark's own tests.
func newBench(name string, quick bool) (bench, error) {
	all := schemeNames()
	switch name {
	case "fig9-timing":
		b := &machineBench{fidelity: core.FidelityTiming, modes: []bool{false, true},
			names: []string{"boot", "compile", "forkbench", "redis", "mariadb", "shell", "non-copy"}}
		if quick {
			b.names = []string{"non-copy"}
		}
		return b, nil
	case "crypto-full":
		b := &machineBench{fidelity: core.FidelityFull, modes: []bool{false}, timingRef: true,
			names: []string{"forkbench", "redis", "shell", "non-copy"}}
		if quick {
			b.names = []string{"non-copy"}
		}
		return b, nil
	case "crash-grid":
		b := &gridBench{workloads: []string{"forkbench", "shell"}, schemes: all, regionKB: 512,
			persist: []string{"strict", "phoenix", "triad:2"}, mlp: []string{"off", "on"}}
		if quick {
			b.workloads, b.regionKB = []string{"forkbench"}, 64
			b.persist, b.mlp = []string{"strict", "phoenix"}, []string{"off"}
		}
		return b, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	quick    bool
	out      string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: the scripts, shell/redis draws and fault planes derive from it")
	fs.IntVar(&o.seconds, "seconds", 25, "measurement budget in seconds (whole passes over the cell set, at least one)")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	fs.BoolVar(&o.quick, "quick", false, "reduced cell set (the benchmark's own tests)")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for spans, the CPU profile and grid scratch state")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "perfbench: want --workload NAME [--seed N] [--seconds S>=1] [--trace 0|1]")
		return 2
	}
	o.trace = trace == 1
	b, err := newBench(o.workload, o.quick)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	rep, err := execute(b, o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	if err := rep.write(stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything one run prints.
type report struct {
	opts    options
	knobs   knobSet
	passes  int
	cells   int // cells per pass
	lines   []string
	metrics map[string]metric
	l       *ledger
	selfErr error
}

func (r *report) set(name string, v float64, unit string) {
	r.metrics[name] = metric{v, unit}
}

func (r *report) note(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// execute runs a workload: set-up (repeated), untimed preparation, the
// measured passes, and for traced runs the traced passes, replay and
// microbenchmarks.
func execute(b bench, o options) (*report, error) {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(o.out, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	e := &env{seed: o.seed, tmp: tmp, tr: tr, layer: map[string]float64{}}
	l := newLedger()
	rep := &report{opts: o, metrics: map[string]metric{}, l: l}

	var setups []float64
	for i := 0; i < setupReps; i++ {
		b.release()
		runtime.GC()
		t0 := time.Now()
		if err := b.setup(e); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	if err := b.prepare(e, l); err != nil {
		return nil, err
	}
	rep.knobs = b.knobs()

	budget := time.Duration(o.seconds) * time.Second
	if !o.trace {
		e.tr = nil
		passes, err := measure(b, e, l, budget, 2)
		if err != nil {
			return nil, err
		}
		rep.endToEnd(passes, setups)
	} else {
		// The untraced phase gives trace_overhead its base; the traced
		// phase must reproduce its results exactly.
		e.tr = nil
		plain, err := measure(b, e, l, budget/2, 1)
		if err != nil {
			return nil, err
		}
		e.tr, e.probes, e.reg = tr, &probeSet{}, metrics.NewRegistry()
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
		traced, err := measure(b, e, l, budget/2, 1)
		pprof.StopCPUProfile()
		if err != nil {
			return nil, err
		}
		if err := b.replay(e, l); err != nil {
			return nil, err
		}
		scale := 1
		if o.quick {
			scale = 64
		}
		micro, err := microMetrics(tr, scale)
		if err != nil {
			return nil, err
		}
		if err := rep.perLayer(e, plain, traced, micro, prof.Bytes()); err != nil {
			return nil, err
		}
	}
	rep.selfErr = l.selfCheck()
	return rep, nil
}

// measure runs whole passes until the next would overrun the budget, and at
// least minPasses, checking every cell against the ledger.
func measure(b bench, e *env, l *ledger, budget time.Duration, minPasses int) ([]passRun, error) {
	start := time.Now()
	var passes []passRun
	for {
		p, err := b.pass(e)
		if err != nil {
			return nil, err
		}
		for _, c := range p.cells {
			l.observe(c)
		}
		if p.digest != "" {
			l.observeDigest(p.digest, len(p.cells))
		}
		passes = append(passes, p)
		elapsed := time.Since(start)
		if len(passes) >= minPasses && elapsed+elapsed/time.Duration(len(passes)) > budget {
			return passes, nil
		}
	}
}

func cellsPerSecond(passes []passRun) float64 {
	var n int
	var wall time.Duration
	for _, p := range passes {
		n += len(p.cells)
		wall += p.wall
	}
	return float64(n) / wall.Seconds()
}

func hostTimes(passes []passRun) []float64 {
	var ms []float64
	for _, p := range passes {
		for _, c := range p.cells {
			ms = append(ms, c.hostMs)
		}
	}
	return ms
}

// endToEnd fills the untraced run's metrics.
func (r *report) endToEnd(passes []passRun, setups []float64) {
	r.passes, r.cells = len(passes), len(passes[0].cells)
	r.set("setup_s", median(setups), "s")
	r.set("cells_per_s", cellsPerSecond(passes), "cells/s")
	ms := hostTimes(passes)
	tail := tailPercentile(len(ms))
	r.set("cell_ms_p50", quantile(ms, 0.5), "ms")
	r.set("cell_ms_tail", quantile(ms, float64(tail)/100), "ms")
	r.set("peak_rss_mb", peakRSSMB(), "MB")
	cells := r.l.measured()
	for _, s := range schemeNames() {
		var exec, writes []float64
		for _, c := range cells {
			if c.scheme == s && c.result != nil {
				exec = append(exec, float64(c.result.ExecNs)/1e6)
				writes = append(writes, float64(c.result.NVMWrites))
			}
		}
		r.set("sim_ms."+s, geomean(exec), "sim_ms")
		r.set("nvm_writes."+s, geomean(writes), "count")
	}
	var recoveryUs []float64
	for _, c := range cells {
		if c.report != nil {
			recoveryUs = append(recoveryUs, float64(c.report.RecoveryNs)/1e3)
		}
	}
	if len(recoveryUs) > 0 {
		r.note("metric recovery_us_geomean %.6g sim_us over %d crash cells (not gated: the other workloads have no crash cells)",
			geomean(recoveryUs), len(recoveryUs))
	}
	r.paperErrors(cells)
	r.note("setup_s is the median of %d set-ups: %s", len(setups), fmtList(setups, "%.4f"))
	r.note("cell_ms_p50 and cell_ms_tail (p%d) are Harrell-Davis estimates over %d cell samples (%d passes x %d cells)",
		tail, len(ms), r.passes, r.cells)
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB, or the Go
// runtime's total obtained memory where /proc is unavailable.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

func fmtList(xs []float64, format string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(format, x)
	}
	return strings.Join(parts, " ")
}

// write prints the human-readable lines and then the JSON result line.
func (r *report) write(w io.Writer) error {
	o := r.opts
	cfg := map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"quick": o.quick, "knobs": r.knobs, "loop": "closed", "go": runtime.Version(),
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"passes": r.passes, "cells_per_pass": r.cells,
	}
	cfgJSON, err := json.Marshal(cfg)
	if err != nil {
		return err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "perfbench config %s\n", cfgJSON)
	fmt.Fprintln(&b, "perfbench note: modelled caches, counter caches and TLBs start empty in every cell and warm during each script's unmeasured set-up phase; no host-side warm-up pass is run or discarded")
	for _, line := range r.lines {
		fmt.Fprintf(&b, "perfbench note: %s\n", line)
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Fprintf(&b, "perfbench metric %-40s %16.6g %s\n", n, m.Value, m.Unit)
	}
	failed := r.l.failed
	for _, why := range r.l.reasons {
		fmt.Fprintf(&b, "perfbench FAILED %s\n", why)
	}
	correct := failed == 0 && r.selfErr == nil
	if r.selfErr != nil {
		fmt.Fprintf(&b, "perfbench FAILED %v\n", r.selfErr)
	}
	frac := 0.0
	if r.l.attempted > 0 {
		frac = float64(failed) / float64(r.l.attempted)
	}
	fmt.Fprintf(&b, "perfbench cells attempted=%d failed=%d cells_failed_frac=%g ratio\n", r.l.attempted, failed, frac)
	if r.l.digest != "" {
		fmt.Fprintf(&b, "perfbench grid report digest %s\n", r.l.digest)
	}
	fmt.Fprintf(&b, "perfbench results digest %s\n", resultsDigest(r.l))
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, r.l.attempted, failed, r.metrics})
	if err != nil {
		return err
	}
	b.Write(out)
	b.WriteByte('\n')
	_, err = io.WriteString(w, b.String())
	return err
}
