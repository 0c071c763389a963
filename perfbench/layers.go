package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"lelantus/internal/probe"
)

// paperSpeedup is the paper's Fig. 9 Lelantus-vs-Baseline speedup per
// workload and page mode, as EXPERIMENTS.md transcribes it.
var paperSpeedup = map[string][2]float64{ // [4KB, 2MB]
	"boot":      {1.20, 1.57},
	"compile":   {1.58, 5.39},
	"forkbench": {2.24, 30.57},
	"redis":     {3.43, 23.28},
	"mariadb":   {1.15, 1.47},
	"shell":     {2.99, 9.27},
	"non-copy":  {1.00, 1.00},
}

var paperWorkloads = []string{"boot", "compile", "forkbench", "redis", "mariadb", "shell", "non-copy"}

// probeClasses are the probe event classes whose simulated time is
// reported, by metric name.
var probeClasses = []struct {
	name string
	kind probe.Kind
}{
	{"read", probe.EvRead},
	{"write", probe.EvWrite},
	{"page_copy", probe.EvPageCopy},
	{"page_phyc", probe.EvPagePhyc},
	{"ctr-miss", probe.EvCtrMiss},
	{"kernel-fault", probe.EvKernelFault},
	// Tree updates against tree_persist_writes separate Merkle-tree update
	// work from metadata persistence (streamlined BMT updates). The model
	// charges an update no simulated time, so only its count moves today.
	{"bmt-update", probe.EvBMTUpdate},
}

func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	return out
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// perLayer fills the traced run's metrics.
func (r *report) perLayer(e *env, plain, traced []passRun, micro map[string]float64, prof []byte) error {
	r.passes, r.cells = len(plain)+len(traced), len(plain[0].cells)
	tr := e.tr
	for _, m := range []struct{ name, unit string }{
		{"workload.build_ms", "ms"}, {"workload.script_mb", "MB"}, {"workload.ops", "count"},
		{"faultinject.persist_points", "count"},
	} {
		r.set(m.name, e.layer[m.name], m.unit)
	}

	// sim: NewMachine and Run as the benchmark timed them (crash-grid: in
	// the replay of its measurement cells).
	runs, runCells := tr.durations("sim.Machine.Run")
	runMs := sum(msOf(runs))
	// Each timed cell ran len(runs)/runCells times: once per traced pass,
	// or once in crash-grid's replay.
	reps := float64(len(runs)) / float64(max(runCells, 1))
	newMachine, _ := tr.durations("sim.NewMachine")
	r.set("sim.new_machine_ms_p50", median(msOf(newMachine)), "ms")
	r.set("sim.run_ms", runMs/max(reps, 1), "ms")
	nsPerOp := 0.0
	if e.runOps > 0 {
		nsPerOp = runMs * 1e6 / float64(e.runOps)
	}
	r.set("sim.host_ns_per_op", nsPerOp, "ns")

	for n, v := range micro {
		r.set(n, v, "ns")
	}

	r.resultLayers()

	// grid: coordinator telemetry, traced passes only.
	var wall time.Duration
	for _, p := range traced {
		wall += p.wall
	}
	var overhead, steals, retries, cellP50 float64
	if e.reg != nil {
		h := e.reg.Histogram("grid_cell_wall_ns", "").Snapshot()
		if h.Count > 0 {
			overhead = (float64(wall.Nanoseconds()) - float64(h.Sum)/gridWorkers) / 1e6 / float64(len(traced))
			cellP50 = float64(h.Percentile(50)) / 1e6
		}
		steals = float64(e.reg.Counter("grid_steals_total", "").Value())
		retries = float64(e.reg.Counter("grid_cell_retries_total", "").Value())
	}
	r.set("grid.overhead_ms", overhead, "ms")
	r.set("grid.steals", steals, "count")
	r.set("grid.retries", retries, "count")
	r.set("grid.cell_wall_ms_p50", cellP50, "ms")

	// probe: events, simulated time and p99 latency per class over every
	// traced cell.
	for _, pc := range probeClasses {
		h := &e.probes.lat[pc.kind]
		r.set("probe."+pc.name+".count", float64(h.Count), "count")
		r.set("probe."+pc.name+".sim_ms", float64(h.Sum)/1e6, "sim_ms")
		r.set("probe."+pc.name+".p99_ns", float64(h.Percentile(99)), "sim_ns")
	}
	r.set("probe.queue_occ_p99", linP99(&e.probes.occ), "count")

	shares, samples, err := selfShares(prof)
	if err != nil {
		return err
	}
	for _, m := range hostModules {
		r.set("host_self."+m, shares[m], "ratio")
	}
	r.set("trace_overhead", cellsPerSecond(plain)/cellsPerSecond(traced), "ratio")
	r.note("host_self shares are from %d CPU-profile samples of the traced passes", samples)
	r.note("trace_overhead compares %d untraced with %d traced passes", len(plain), len(traced))
	r.spanNotes(tr)
	return r.writeTrace(tr, prof)
}

// linP99 is the nearest-rank 99th percentile of a linear histogram.
func linP99(h *probe.LinHist) float64 {
	var total uint64
	for _, n := range h.Buckets {
		total += n
	}
	if total == 0 {
		return 0
	}
	rank := (total*99 + 99) / 100
	var cum uint64
	for i, n := range h.Buckets {
		cum += n
		if cum >= rank {
			return float64(i)
		}
	}
	return float64(len(h.Buckets) - 1)
}

// resultLayers derives the simulated per-layer metrics from the recorded
// (deterministic) outcomes of every cell, and the paper comparison.
func (r *report) resultLayers() {
	cells := r.l.measured()
	var k struct {
		cowFaults, pagesCopied, faultNs, walks                                    uint64
		redirects, hops, copies, phyc, onDemand, elisions, treePersist, overflows uint64
		recBlocks, recNodes, recLines                                             uint64
	}
	var maxChain int
	var ctrMiss, cowMiss, copyInit, recoveryUs []float64
	for _, c := range cells {
		if c.report != nil {
			k.recBlocks += c.report.BlocksScanned
			k.recNodes += c.report.NodesRebuilt
			k.recLines += c.report.LinesScrubbed
			recoveryUs = append(recoveryUs, float64(c.report.RecoveryNs)/1e3)
		}
		res := c.result
		if res == nil {
			continue
		}
		k.cowFaults += res.Kernel.CoWFaults
		k.pagesCopied += res.Kernel.PagesCopied
		k.faultNs += res.Kernel.FaultNs
		k.walks += res.TLBWalks
		en := res.Engine
		k.redirects += en.Redirects
		k.hops += en.ChainHops
		maxChain = max(maxChain, en.MaxChain)
		k.copies += en.PageCopies
		k.phyc += en.PhycLines
		k.onDemand += en.CopiedOnDemand
		k.elisions += en.ZeroWriteElisions
		k.treePersist += en.TreePersistWrites
		k.overflows += res.CtrOverflows
		ctrMiss = append(ctrMiss, res.CtrMissRate)
		cowMiss = append(cowMiss, res.CoWMissRate)
		copyInit = append(copyInit, res.CopyInitShare)
	}
	counts := []struct {
		name string
		v    uint64
	}{
		{"kernel.cow_faults", k.cowFaults}, {"kernel.pages_copied", k.pagesCopied}, {"tlb.walks", k.walks},
		{"core.redirects", k.redirects}, {"core.chain_hops", k.hops}, {"core.max_chain", uint64(maxChain)},
		{"core.page_copies", k.copies}, {"core.phyc_lines", k.phyc}, {"core.copied_on_demand", k.onDemand},
		{"core.zero_write_elisions", k.elisions}, {"core.tree_persist_writes", k.treePersist},
		{"ctr.overflows", k.overflows}, {"core.recovery_blocks_scanned", k.recBlocks},
		{"core.recovery_nodes_rebuilt", k.recNodes}, {"core.recovery_lines_scrubbed", k.recLines},
	}
	for _, c := range counts {
		r.set(c.name, float64(c.v), "count")
	}
	r.set("kernel.fault_sim_ms", float64(k.faultNs)/1e6, "sim_ms")
	r.set("ctrcache.ctr_miss_rate", mean(ctrMiss), "ratio")
	r.set("ctrcache.cow_miss_rate", mean(cowMiss), "ratio")
	r.set("memctrl.copy_init_share", mean(copyInit), "ratio")
	r.set("recovery_us_geomean", geomean(recoveryUs), "sim_us")
	frac := 0.0
	if r.l.attempted > 0 {
		frac = float64(r.l.failed) / float64(r.l.attempted)
	}
	r.set("cells_failed_frac", frac, "ratio")
	for name, v := range r.paperErrors(cells) {
		r.set(name, v, "ratio")
	}
}

// paperErrors compares each measured Lelantus-vs-Baseline speedup with the
// paper's Fig. 9 value, printing both beside the signed relative error. It
// returns the error for every workload and page mode, 0 where the run has
// no baseline/lelantus cell pair for it.
func (r *report) paperErrors(cells []cellRun) map[string]float64 {
	execNs := map[string]map[string]float64{} // workload/mode -> scheme -> ExecNs
	for _, c := range cells {
		// Machine cells are keyed workload/mode/scheme; grid tags never
		// carry a page mode in the second place.
		parts := strings.Split(c.key, "/")
		if c.result == nil || len(parts) != 3 || (parts[1] != "4KB" && parts[1] != "2MB") {
			continue
		}
		wm := parts[0] + "/" + parts[1]
		if execNs[wm] == nil {
			execNs[wm] = map[string]float64{}
		}
		execNs[wm][parts[2]] = float64(c.result.ExecNs)
	}
	out := map[string]float64{}
	for _, wl := range paperWorkloads {
		for i, mode := range []string{"4KB", "2MB"} {
			v := 0.0
			ex := execNs[wl+"/"+mode]
			if base, lel := ex["baseline"], ex["lelantus"]; base > 0 && lel > 0 {
				paper := paperSpeedup[wl][i]
				v = (base/lel - paper) / paper
				r.note("Fig. 9 %s %s: Lelantus speedup %.3fx, paper %.2fx, error %+.1f%%", wl, mode, base/lel, paper, 100*v)
			}
			out["paper.speedup_err."+wl+"."+mode] = v
		}
	}
	return out
}

// spanNotes prints per-span-name self time, the layer breakdown of the
// traced run's host time.
func (r *report) spanNotes(tr *tracer) {
	self := tr.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		r.note("span self time %-28s %10.1f ms", n, float64(self[n].Nanoseconds())/1e6)
	}
}

// writeTrace writes the spans (one JSON object a line) and the CPU profile
// under the output directory.
func (r *report) writeTrace(tr *tracer, prof []byte) error {
	o := r.opts
	base := filepath.Join(o.out, fmt.Sprintf("%s-seed%d", o.workload, o.seed))
	f, err := os.Create(base + ".spans.jsonl")
	if err != nil {
		return err
	}
	if err := tr.writeJSONL(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.WriteFile(base+".cpu.pprof", prof, 0o644); err != nil {
		return err
	}
	r.note("spans written to %s.spans.jsonl, CPU profile to %s.cpu.pprof", base, base)
	return nil
}

// resultsDigest hashes every recorded cell outcome in first-seen order, so
// two runs of one seed can be compared by eye.
func resultsDigest(l *ledger) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, c := range l.measured() {
		// Results hold only numbers and strings; encoding cannot fail.
		_ = enc.Encode(struct {
			Key    string
			Result any
			Report any
		}{c.key, c.result, c.report})
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
