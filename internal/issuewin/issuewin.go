// Package issuewin provides the deterministic work-partitioning pool behind
// the engine's bank-parallel batch paths (page_phyc, the re-encryption
// sweep, the recovery scrub passes). A batch of n independent per-index
// jobs is split into contiguous chunks, one per worker goroutine; each job
// writes only to its own index's output slot, and the caller merges the
// slots in index order after Run returns. Because job outputs are pure
// functions of their index (workers carry private scratch state, never
// shared mutable state), the merged result is byte-identical at any worker
// count — the pool-size determinism contract the MLP tests pin.
package issuewin

import "sync"

// Run executes fn(i) for every i in [0, n), fanned out over `workers`
// goroutines in contiguous index chunks. workers <= 1 (or a batch too small
// to split) runs inline. fn must only write to per-index state.
func Run(workers, n int, fn func(i int)) {
	RunWith(workers, n, func() struct{} { return struct{}{} },
		func(_ struct{}, i int) { fn(i) })
}

// RunWith is Run with per-worker private state: newState is called once per
// participating worker (including the inline path) and the state is handed
// to every fn call that worker executes. Jobs needing non-reentrant scratch
// — MAC and hash scratch, AES pad buffers — get one instance each without
// sharing.
func RunWith[S any](workers, n int, newState func() S, fn func(s S, i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		s := newState()
		for i := 0; i < n; i++ {
			fn(s, i)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		go func(lo, hi int) {
			defer wg.Done()
			s := newState()
			for i := lo; i < hi; i++ {
				fn(s, i)
			}
		}(lo, hi)
	}
	wg.Wait()
}
