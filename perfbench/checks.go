package main

import (
	"fmt"
	"reflect"

	"lelantus/internal/core"
	"lelantus/internal/sim"
)

// cellRun is the outcome of one cell.
type cellRun struct {
	key    string // stable cell label, unique within a workload
	scheme string
	result *sim.Result          // measurement cells
	report *core.RecoveryReport // crash cells
	hostMs float64              // host time from the cell's start to its result
	err    string               // why the cell failed to run or recover
}

// ledger holds the first simulated outcome seen for every cell and checks
// every later one against it, counting attempts and failures. A cell fails
// when it errors, when a crash cell reports a recovery violation, or when
// its outcome differs from the recorded one: across passes, between the
// untraced and traced phases, and (crypto-full) against the timing-fidelity
// reference recorded before the first pass.
type ledger struct {
	ref       map[string]cellRun
	order     []string // keys in first-seen order
	digest    string   // first merged-report digest (crash-grid)
	attempted int
	failed    int
	reasons   []string // the first few failure reasons
}

func newLedger() *ledger { return &ledger{ref: map[string]cellRun{}} }

// maxReasons bounds how many failure reasons a report prints.
const maxReasons = 8

func (l *ledger) fail(reason string) {
	l.failed++
	if len(l.reasons) < maxReasons {
		l.reasons = append(l.reasons, reason)
	}
}

// seed records a reference outcome without counting it as an attempt.
func (l *ledger) seed(c cellRun) {
	if _, ok := l.ref[c.key]; !ok {
		l.order = append(l.order, c.key)
	}
	l.ref[c.key] = c
}

// observe checks one attempted cell.
func (l *ledger) observe(c cellRun) {
	l.attempted++
	if c.err != "" {
		l.fail(c.key + ": " + c.err)
		return
	}
	ref, ok := l.ref[c.key]
	if !ok {
		l.seed(c)
		return
	}
	if why := mismatch(ref, c); why != "" {
		l.fail(c.key + ": " + why)
	}
}

// observeDigest checks one pass's merged grid report against the first;
// a differing report fails every cell of the pass.
func (l *ledger) observeDigest(digest string, cells int) {
	if l.digest == "" {
		l.digest = digest
		return
	}
	if digest != l.digest {
		for i := 0; i < cells; i++ {
			l.fail(fmt.Sprintf("merged report digest %s differs from %s", digest, l.digest))
		}
	}
}

// mismatch says how c's simulated outcome differs from ref ("" if it is
// identical).
func mismatch(ref, c cellRun) string {
	if !reflect.DeepEqual(ref.result, c.result) {
		return "simulated result differs from the recorded one"
	}
	if !reflect.DeepEqual(ref.report, c.report) {
		return "recovery report differs from the recorded one"
	}
	return ""
}

// measured returns the recorded outcomes in first-seen order.
func (l *ledger) measured() []cellRun {
	out := make([]cellRun, 0, len(l.order))
	for _, k := range l.order {
		out = append(out, l.ref[k])
	}
	return out
}

// selfCheck perturbs recorded outcomes and confirms the checks flag each
// perturbation, so the correctness checks cannot pass vacuously. It needs
// at least one recorded measurement cell; crash cells and the digest are
// exercised when the workload has them.
func (l *ledger) selfCheck() error {
	checked := false
	for _, c := range l.measured() {
		switch {
		case c.result != nil:
			bad := c
			r := *c.result
			r.ExecNs++
			bad.result = &r
			if mismatch(c, bad) == "" {
				return fmt.Errorf("self-check: a perturbed ExecNs in %s went unnoticed", c.key)
			}
			checked = true
		case c.report != nil:
			bad := c
			r := *c.report
			r.RecoveryNs++
			bad.report = &r
			if mismatch(c, bad) == "" {
				return fmt.Errorf("self-check: a perturbed RecoveryNs in %s went unnoticed", c.key)
			}
		}
	}
	if !checked {
		return fmt.Errorf("self-check: no measurement cell was recorded")
	}
	probe := newLedger()
	probe.observe(cellRun{key: "x", err: "1 CoW redirect chains contain a cycle"})
	probe.observeDigest("a", 1)
	probe.observeDigest("b", 1)
	if probe.failed != 2 {
		return fmt.Errorf("self-check: a recovery violation and a digest change gave %d failures, want 2", probe.failed)
	}
	return nil
}
