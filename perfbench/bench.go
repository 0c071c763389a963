package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
	"unsafe"

	"lelantus/internal/core"
	"lelantus/internal/grid"
	"lelantus/internal/metrics"
	"lelantus/internal/probe"
	"lelantus/internal/sim"
	"lelantus/internal/workload"
)

const (
	// memMB sizes the simulated NVM of every cell (the experiment
	// harness's default; every catalogue working set fits).
	memMB = 512
	// gridWorkers is crash-grid's worker count, fixed so figures compare
	// across machines; the baseline machine has two CPUs.
	gridWorkers = 2
)

// knobSet is the machine configuration a workload runs under, recorded
// with every run.
type knobSet struct {
	Fidelity    string   `json:"fidelity"`
	Persist     []string `json:"persist"`
	MLP         []string `json:"mlp"`
	Prefetch    string   `json:"prefetch"`
	MemMB       int      `json:"mem_mb"`
	PageModes   []string `json:"page_modes"`
	Workloads   []string `json:"workloads"`
	RegionKB    uint64   `json:"forkbench_region_kb,omitempty"`
	CrashPoints []uint64 `json:"crash_points,omitempty"`
	Workers     int      `json:"workers"`
}

// env is the state a workload's phases share.
type env struct {
	seed   int64
	tmp    string            // scratch directory for grid runs
	tr     *tracer           // nil when untraced
	probes *probeSet         // nil when untraced
	reg    *metrics.Registry // nil when untraced
	layer  map[string]float64
	runOps int // scripted ops run by traced Machine.Run calls
}

// bench is one benchmark workload.
type bench interface {
	// setup builds the workload's inputs from the seed. The runner times
	// it as setup_s and repeats it; the last set-up's inputs are used.
	setup(e *env) error
	// release drops the inputs of the last set-up, so the next one starts
	// from a collected heap instead of carrying two copies.
	release()
	// prepare runs untimed between set-up and the first pass.
	prepare(e *env, l *ledger) error
	// pass runs every cell once, closed loop.
	pass(e *env) (passRun, error)
	// replay (traced runs) re-runs cells the benchmark cannot time or
	// probe inside a pass, so every workload reports the sim.* and
	// probe.* layers.
	replay(e *env, l *ledger) error
	knobs() knobSet
}

// passRun is one closed-loop pass over a workload's cells.
type passRun struct {
	wall   time.Duration // time the cells ran: their sum, or the grid's Run
	cells  []cellRun
	digest string // merged grid report digest (crash-grid only)
}

func pageMode(huge bool) string {
	if huge {
		return "2MB"
	}
	return "4KB"
}

func schemeNames() []string {
	var out []string
	for _, s := range core.Schemes() {
		out = append(out, s.String())
	}
	return out
}

// machineConfig is the cell machine: the paper's Table III for the scheme
// at the benchmark's memory size and the given fidelity, every other knob
// at its default (strict persist, MLP off, prefetch off).
func machineConfig(scheme core.Scheme, fid core.Fidelity) sim.Config {
	cfg := sim.DefaultConfig(scheme)
	cfg.Mem.MemBytes = memMB << 20
	cfg.Mem.Core.Fidelity = fid
	return cfg
}

// scriptBytes is the materialized size of a script's operations.
func scriptBytes(s *workload.Script) uint64 {
	n := uint64(len(s.Ops)) * uint64(unsafe.Sizeof(workload.Op{}))
	for i := range s.Ops {
		n += uint64(len(s.Ops[i].Procs)) * uint64(unsafe.Sizeof(int(0)))
	}
	return n
}

// runMachine runs one script on a fresh machine, timing NewMachine and Run.
func runMachine(e *env, key string, cfg sim.Config, s *workload.Script, parent int) cellRun {
	c := cellRun{key: key, scheme: cfg.Mem.Core.Scheme.String()}
	var pl *probe.Plane
	if e.probes != nil {
		// RingCap 1: the histograms cover the whole run whatever the ring
		// holds, and only they are read.
		pl = probe.New(probe.Config{RingCap: 1})
		cfg.Mem.Probe = pl
	}
	id := e.tr.begin("cell", key, parent)
	defer e.tr.finish(id)
	t0 := time.Now()
	m, err := sim.NewMachine(cfg)
	t1 := time.Now()
	e.tr.record("sim.NewMachine", key, id, t0, t1)
	if err != nil {
		c.err = err.Error()
		return c
	}
	res, err := m.Run(*s)
	t2 := time.Now()
	e.tr.record("sim.Machine.Run", key, id, t1, t2)
	c.hostMs = float64(t2.Sub(t0).Nanoseconds()) / 1e6
	if err != nil {
		c.err = err.Error()
		return c
	}
	c.result = &res
	e.probes.add(pl)
	if e.tr != nil {
		e.runOps += len(s.Ops)
	}
	return c
}

// machineBench runs catalogue scripts × schemes one cell at a time:
// fig9-timing and crypto-full.
type machineBench struct {
	names    []string
	modes    []bool // page modes (huge)
	fidelity core.Fidelity
	// timingRef records each cell's timing-fidelity result before the
	// first pass, as the reference its full-fidelity result must equal.
	timingRef bool

	scripts []labelled
}

type labelled struct {
	label string // workload/page mode
	s     workload.Script
}

func (b *machineBench) release() { b.scripts = nil }

func (b *machineBench) setup(e *env) error {
	root := e.tr.begin("setup", "", 0)
	defer e.tr.finish(root)
	var buildNs int64
	var ops, bytes uint64
	for _, name := range b.names {
		spec, err := workload.ByName(name)
		if err != nil {
			return err
		}
		for _, huge := range b.modes {
			label := name + "/" + pageMode(huge)
			id := e.tr.begin("workload.Spec.Build", label, root)
			t0 := time.Now()
			s := spec.Build(huge, e.seed)
			buildNs += time.Since(t0).Nanoseconds()
			e.tr.finish(id)
			ops += uint64(len(s.Ops))
			bytes += scriptBytes(&s)
			b.scripts = append(b.scripts, labelled{label, s})
		}
	}
	e.layer["workload.build_ms"] = float64(buildNs) / 1e6
	e.layer["workload.ops"] = float64(ops)
	e.layer["workload.script_mb"] = float64(bytes) / (1 << 20)
	return nil
}

func (b *machineBench) prepare(e *env, l *ledger) error {
	if !b.timingRef {
		return nil
	}
	for i := range b.scripts {
		for _, sc := range core.Schemes() {
			ls := &b.scripts[i]
			// An empty env: reference runs are neither traced nor probed.
			c := runMachine(&env{}, ls.label+"/"+sc.String(), machineConfig(sc, core.FidelityTiming), &ls.s, 0)
			if c.err != "" {
				return fmt.Errorf("timing-fidelity reference %s: %s", c.key, c.err)
			}
			l.seed(c)
		}
	}
	return nil
}

func (b *machineBench) pass(e *env) (passRun, error) {
	id := e.tr.begin("pass", "", 0)
	defer e.tr.finish(id)
	var p passRun
	runtime.GC() // start every pass from a collected heap, untimed
	for i := range b.scripts {
		for _, sc := range core.Schemes() {
			ls := &b.scripts[i]
			c := runMachine(e, ls.label+"/"+sc.String(), machineConfig(sc, b.fidelity), &ls.s, id)
			p.wall += time.Duration(c.hostMs * 1e6)
			p.cells = append(p.cells, c)
		}
	}
	return p, nil
}

func (b *machineBench) replay(*env, *ledger) error { return nil }

func (b *machineBench) knobs() knobSet {
	var modes []string
	for _, h := range b.modes {
		modes = append(modes, pageMode(h))
	}
	return knobSet{Fidelity: b.fidelity.String(), Persist: []string{"strict"}, MLP: []string{"off"},
		Prefetch: "off", MemMB: memMB, PageModes: modes, Workloads: b.names, Workers: 1}
}

// gridBench is crash-grid: the grid coordinator at gridWorkers workers over
// measurement and crash-recovery cells.
type gridBench struct {
	workloads []string
	schemes   []string
	persist   []string
	mlp       []string
	regionKB  uint64

	spec  grid.Spec
	coord *grid.Coordinator // created by the last set-up, used by the next pass
	reg   *metrics.Registry // the registry coord reports to
	dir   string            // coord's directory
	dirs  int
	clock *workerClock
}

func (b *gridBench) cellSpec(e *env, wl, scheme, persist, mlp string) grid.CellSpec {
	return grid.CellSpec{Workload: wl, Seed: e.seed, Scheme: scheme, Fidelity: "timing",
		Persist: persist, MLP: mlp, RegionKB: b.regionKB, MemMB: memMB}
}

// setup enumerates the persist-point space of every (workload, scheme,
// persist) cell with sim.CrashPoints, places two crash points inside the
// smallest space, and creates the grid. MLP is a timing model: it leaves
// the persist sequence, and so the space, unchanged.
func (b *gridBench) setup(e *env) error {
	root := e.tr.begin("setup", "", 0)
	defer e.tr.finish(root)
	type job struct {
		cs     grid.CellSpec
		cfg    sim.Config
		s      workload.Script
		points uint64
		err    error
	}
	var jobs []*job
	var buildNs int64
	var ops, bytes uint64
	for _, wl := range b.workloads {
		for _, sc := range b.schemes {
			for _, ps := range b.persist {
				j := &job{cs: b.cellSpec(e, wl, sc, ps, "off")}
				id := e.tr.begin("grid.CellSpec.Build", j.cs.Tag(), root)
				t0 := time.Now()
				cfg, s, err := j.cs.Build()
				buildNs += time.Since(t0).Nanoseconds()
				e.tr.finish(id)
				if err != nil {
					return err
				}
				j.cfg, j.s = cfg, s
				ops += uint64(len(s.Ops))
				bytes += scriptBytes(&s)
				jobs = append(jobs, j)
			}
		}
	}
	e.layer["workload.build_ms"] = float64(buildNs) / 1e6
	e.layer["workload.ops"] = float64(ops)
	e.layer["workload.script_mb"] = float64(bytes) / (1 << 20)

	var wg sync.WaitGroup
	next := make(chan *job)
	for w := 0; w < gridWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				t0 := time.Now()
				j.points, j.err = sim.CrashPoints(j.cfg, j.s, e.seed)
				e.tr.record("sim.CrashPoints", j.cs.Tag(), root, t0, time.Now())
			}
		}()
	}
	for _, j := range jobs {
		next <- j
	}
	close(next)
	wg.Wait()
	var total, least uint64
	for _, j := range jobs {
		if j.err != nil {
			return fmt.Errorf("persist points of %s: %w", j.cs.Tag(), j.err)
		}
		total += j.points
		if least == 0 || j.points < least {
			least = j.points
		}
	}
	if least < 2 {
		return fmt.Errorf("crash-grid: a cell has %d persist points, need at least 2", least)
	}
	e.layer["faultinject.persist_points"] = float64(total)

	b.spec = grid.Spec{
		Name:        "perfbench-crash-grid",
		Workloads:   b.workloads,
		Seeds:       []int64{e.seed},
		Schemes:     b.schemes,
		Fidelity:    "timing",
		Persist:     b.persist,
		MLP:         b.mlp,
		FaultSeeds:  []int64{e.seed},
		CrashPoints: []uint64{0, max(least/3, 1), max(2*least/3, 2)},
		MemMB:       memMB,
		RegionKB:    b.regionKB,
	}
	return b.create(e, root)
}

func (b *gridBench) release() {
	if b.dir != "" {
		os.RemoveAll(b.dir)
	}
	b.coord, b.reg, b.dir = nil, nil, ""
}

// create makes a fresh grid directory and coordinator for the next pass.
func (b *gridBench) create(e *env, parent int) error {
	if b.clock == nil {
		b.clock = newWorkerClock()
	}
	b.dirs++
	b.dir = filepath.Join(e.tmp, fmt.Sprintf("grid-%d", b.dirs))
	id := e.tr.begin("grid.Create", "", parent)
	coord, err := grid.Create(b.dir, b.spec, grid.Options{Workers: gridWorkers, Log: b.clock, Metrics: e.reg})
	e.tr.finish(id)
	if err != nil {
		return err
	}
	b.coord, b.reg = coord, e.reg
	return nil
}

func (b *gridBench) prepare(*env, *ledger) error { return nil }

func (b *gridBench) pass(e *env) (passRun, error) {
	id := e.tr.begin("pass", "", 0)
	defer e.tr.finish(id)
	// A grid runs each cell once, so every pass but the first after a
	// set-up creates its own; that creation is set-up work, outside the
	// pass's wall time.
	if b.coord == nil || b.reg != e.reg {
		if err := b.create(e, id); err != nil {
			return passRun{}, err
		}
	}
	coord, dir := b.coord, b.dir
	b.coord, b.dir = nil, ""
	defer os.RemoveAll(dir)

	runtime.GC() // start every pass from a collected heap, untimed
	runID := e.tr.begin("grid.Coordinator.Run", "", id)
	t0 := time.Now()
	b.clock.reset(t0)
	rep, err := coord.Run()
	t1 := time.Now()
	e.tr.finish(runID)
	if err != nil {
		return passRun{}, err
	}
	times := b.clock.cells()
	for tag, ct := range times {
		e.tr.record("grid.cell", tag, runID, ct.start, ct.end)
	}
	payload, err := rep.Marshal()
	if err != nil {
		return passRun{}, err
	}
	sum := sha256.Sum256(payload)
	p := passRun{wall: t1.Sub(t0), digest: hex.EncodeToString(sum[:8])}
	for _, cells := range [][]grid.CellResult{rep.Cells, rep.Failures} {
		for _, cr := range cells {
			c := cellRun{key: cr.Tag, scheme: cr.Spec.Scheme, err: cr.Err}
			ct, ok := times[cr.Tag]
			if !ok {
				return passRun{}, fmt.Errorf("crash-grid: no progress line for cell %s", cr.Tag)
			}
			c.hostMs = float64(ct.end.Sub(ct.start).Nanoseconds()) / 1e6
			switch {
			case cr.Crash != nil:
				c.report = cr.Crash.Report
				if len(cr.Crash.Violations) > 0 && c.err == "" {
					c.err = "recovery violations: " + strings.Join(cr.Crash.Violations, "; ")
				}
			case cr.Result != nil:
				c.result = cr.Result
			case c.err == "":
				c.err = "cell recorded no outcome"
			}
			p.cells = append(p.cells, c)
		}
	}
	return p, nil
}

// replay re-runs the grid's measurement cells through sim.NewMachine and
// Machine.Run with a probe plane attached (the grid builds its machines
// itself), so crash-grid reports the sim.* and probe.* layers too. Each
// replayed result must equal the one the grid recorded.
func (b *gridBench) replay(e *env, l *ledger) error {
	id := e.tr.begin("replay", "", 0)
	defer e.tr.finish(id)
	for _, cs := range b.spec.Cells() {
		if cs.CrashPoint > 0 {
			continue
		}
		cfg, s, err := cs.Build()
		if err != nil {
			return err
		}
		c := runMachine(e, cs.Tag(), cfg, &s, id)
		l.observe(c)
	}
	return nil
}

func (b *gridBench) knobs() knobSet {
	return knobSet{Fidelity: "timing", Persist: b.persist, MLP: b.mlp, Prefetch: "off", MemMB: memMB,
		PageModes: []string{"4KB"}, Workloads: b.workloads, RegionKB: b.regionKB,
		CrashPoints: b.spec.CrashPoints, Workers: gridWorkers}
}

// workerClock turns the coordinator's progress lines (grid.Options.Log)
// into per-cell host times. The coordinator writes a cell's line from the
// worker goroutine that ran the cell, right after recording its result,
// and that goroutine then starts its next cell; so the time between two
// lines from one goroutine is that worker's cell, from start to recorded
// result, and a worker's first cell starts when Run starts.
type workerClock struct {
	mu    sync.Mutex
	start time.Time
	last  map[uint64]time.Time // goroutine -> time of its previous line
	times map[string]cellTime  // cell tag -> its interval
}

type cellTime struct{ start, end time.Time }

func newWorkerClock() *workerClock { return &workerClock{} }

func (w *workerClock) reset(start time.Time) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.start = start
	w.last = map[uint64]time.Time{}
	w.times = map[string]cellTime{}
}

func (w *workerClock) cells() map[string]cellTime {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.times
}

// Write takes one progress line: "lelantus-grid: [i/n] ok|FAILED <tag> ...".
func (w *workerClock) Write(p []byte) (int, error) {
	now := time.Now()
	line := string(p)
	i := strings.Index(line, "] ")
	if i < 0 {
		return len(p), nil // a log line that reports no cell
	}
	fields := strings.Fields(line[i+2:])
	if len(fields) < 2 {
		return len(p), nil
	}
	g := goroutineID()
	w.mu.Lock()
	defer w.mu.Unlock()
	start, ok := w.last[g]
	if !ok {
		start = w.start
	}
	w.last[g] = now
	w.times[fields[1]] = cellTime{start, now}
	return len(p), nil
}

// goroutineID parses the calling goroutine's number from its stack header
// ("goroutine 42 [running]:").
func goroutineID() uint64 {
	var buf [64]byte
	s := strings.TrimPrefix(string(buf[:runtime.Stack(buf[:], false)]), "goroutine ")
	if i := strings.IndexByte(s, ' '); i > 0 {
		s = s[:i]
	}
	id, _ := strconv.ParseUint(s, 10, 64) // the header format is fixed; 0 only if it changes
	return id
}

// probeSet merges the probe planes of every traced cell.
type probeSet struct {
	mu  sync.Mutex
	lat [probe.NumKinds]metrics.Hist
	occ probe.LinHist
}

func (p *probeSet) add(pl *probe.Plane) {
	if p == nil || pl == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for k := probe.Kind(0); k < probe.NumKinds; k++ {
		h := pl.Latency(k)
		p.lat[k].Merge(&h)
	}
	q := pl.QueueOccupancy()
	for i, n := range q.Buckets {
		p.occ.Buckets[i] += n
	}
	p.occ.Count += q.Count
}
