package ctrcache

import (
	"math/rand"
	"sort"
	"testing"
)

// The property tests below drive the caches with long random operation
// mixes against independent reference models. The counter-cache model is a
// plain per-set scan over the documented policy (invalid way first, then
// the LRU way); the CoW model is a recency-ordered slice. Divergence in any
// return value, hit/miss counter, write-back victim or final residency
// fails the test with the op trace position.

// cmEntry mirrors one cache way in the reference model.
type cmEntry struct {
	page  uint64
	valid bool
	dirty bool
	tick  uint64
}

// cacheModel is the reference implementation of Cache's replacement policy.
type cacheModel struct {
	sets, ways int
	tick       uint64
	ents       [][]cmEntry
}

func newCacheModel(sets, ways int) *cacheModel {
	m := &cacheModel{sets: sets, ways: ways, ents: make([][]cmEntry, sets)}
	for i := range m.ents {
		m.ents[i] = make([]cmEntry, ways)
	}
	return m
}

func (m *cacheModel) set(page uint64) []cmEntry { return m.ents[page%uint64(m.sets)] }

func (m *cacheModel) find(page uint64) *cmEntry {
	set := m.set(page)
	for i := range set {
		if set[i].valid && set[i].page == page {
			return &set[i]
		}
	}
	return nil
}

func (m *cacheModel) get(page uint64) bool {
	m.tick++
	if e := m.find(page); e != nil {
		e.tick = m.tick
		return true
	}
	return false
}

func (m *cacheModel) put(page uint64, dirtyNew bool) (victim uint64, needWB bool) {
	m.tick++
	set := m.set(page)
	if e := m.find(page); e != nil {
		e.tick = m.tick
		e.dirty = e.dirty || dirtyNew
		return 0, false
	}
	pick := -1
	for i := range set {
		if !set[i].valid {
			pick = i
			break
		}
	}
	if pick < 0 {
		pick = 0
		for i := 1; i < len(set); i++ {
			if set[i].tick < set[pick].tick {
				pick = i
			}
		}
		if set[pick].dirty {
			victim, needWB = set[pick].page, true
		}
	}
	set[pick] = cmEntry{page: page, valid: true, dirty: dirtyNew, tick: m.tick}
	return victim, needWB
}

func (m *cacheModel) invalidate(page uint64) (wasDirty bool) {
	if e := m.find(page); e != nil {
		wasDirty = e.dirty
		*e = cmEntry{}
	}
	return wasDirty
}

// TestCachePropertyVsModel runs a long random mix of Get, Put, Peek,
// MarkDirty and Invalidate on a small cache and checks every observable —
// return values, hit/miss counters, dirty write-back victims and the final
// residency of every page — against the reference model.
func TestCachePropertyVsModel(t *testing.T) {
	const (
		ways  = 4
		sets  = 2
		pages = 24 // 12 pages per set: several times the associativity
		ops   = 20000
	)
	c := New(uint64(sets*ways*64), ways, WriteBack, 0)
	m := newCacheModel(sets, ways)
	rng := rand.New(rand.NewSource(7))

	var hits, misses uint64
	for op := 0; op < ops; op++ {
		page := uint64(rng.Intn(pages))
		switch rng.Intn(8) {
		case 0, 1, 2: // Get
			got := c.Get(page) != nil
			want := m.get(page)
			if want {
				hits++
			} else {
				misses++
			}
			if got != want {
				t.Fatalf("op %d: Get(%d) hit=%v, model %v", op, page, got, want)
			}
		case 3, 4, 5: // Put, sometimes marking dirty afterwards
			dirty := rng.Intn(2) == 0
			v, wb := c.Put(page, blk(page))
			if dirty {
				c.MarkDirty(page)
			}
			mv, mwb := m.put(page, dirty)
			if wb != mwb || (wb && v.Page != mv) {
				t.Fatalf("op %d: Put(%d) victim=(%v,%v), model (%v,%v)", op, page, v.Page, wb, mv, mwb)
			}
		case 6: // Peek must be side-effect free; the model is untouched
			got := c.Peek(page) != nil
			if want := m.find(page) != nil; got != want {
				t.Fatalf("op %d: Peek(%d)=%v, model %v", op, page, got, want)
			}
		case 7: // Invalidate
			_, wb := c.Invalidate(page)
			if want := m.invalidate(page); wb != want {
				t.Fatalf("op %d: Invalidate(%d) dirty=%v, model %v", op, page, wb, want)
			}
		}
	}
	if c.Hits != hits || c.Misses != misses {
		t.Errorf("counters %d/%d, model %d/%d — a non-demand path moved demand accounting",
			c.Hits, c.Misses, hits, misses)
	}
	for page := uint64(0); page < pages; page++ {
		if got, want := c.Peek(page) != nil, m.find(page) != nil; got != want {
			t.Errorf("final residency of page %d: %v, model %v", page, got, want)
		}
	}
}

// cowModel is the reference recency order for CoWCache.
type cowModel struct {
	order []uint64 // most-recent-first
	state map[uint64]*cowEntry
	cap   int
}

func (m *cowModel) unlink(dst uint64) {
	for i, d := range m.order {
		if d == dst {
			m.order = append(m.order[:i], m.order[i+1:]...)
			return
		}
	}
}

func (m *cowModel) remove(dst uint64) {
	m.unlink(dst)
	delete(m.state, dst)
}

func (m *cowModel) front(dst uint64) {
	m.unlink(dst)
	m.order = append([]uint64{dst}, m.order...)
}

func (m *cowModel) lookup(dst uint64) (src uint64, present, cached bool) {
	e, ok := m.state[dst]
	if !ok {
		return 0, false, false
	}
	m.front(dst)
	return e.src, e.present, true
}

func (m *cowModel) insert(dst, src uint64, present, dirty bool) (victim uint64, needWB bool) {
	if e, ok := m.state[dst]; ok {
		e.src, e.present, e.dirty = src, present, dirty
		m.front(dst)
		return 0, false
	}
	if len(m.order) == m.cap {
		tail := m.order[len(m.order)-1]
		old := m.state[tail]
		if old.dirty {
			victim, needWB = tail, true
		}
		m.remove(tail)
	}
	m.state[dst] = &cowEntry{dst: dst, src: src, present: present, dirty: dirty}
	m.order = append([]uint64{dst}, m.order...)
	return victim, needWB
}

func (m *cowModel) drop(dst uint64) {
	m.remove(dst)
}

func (m *cowModel) drainDirty() []uint64 {
	var out []uint64
	for dst, e := range m.state {
		if e.dirty {
			out = append(out, dst)
			e.dirty = false
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// checkCoWIntegrity walks the intrusive recency list and cross-checks every
// structural invariant: prev/next symmetry, head/tail endpoints, no cycles,
// exact agreement between the list, the dst index and the free-slot pool,
// and that the walked order matches the model's recency order.
func checkCoWIntegrity(t *testing.T, op int, c *CoWCache, m *cowModel) {
	t.Helper()
	var walked []uint64
	seen := map[int32]bool{}
	prev := int32(-1)
	for i := c.head; i >= 0; i = c.ents[i].next {
		if seen[i] {
			t.Fatalf("op %d: recency list cycles at slot %d", op, i)
		}
		seen[i] = true
		if c.ents[i].prev != prev {
			t.Fatalf("op %d: slot %d prev=%d, want %d", op, i, c.ents[i].prev, prev)
		}
		if got, ok := c.idx[c.ents[i].dst]; !ok || got != i {
			t.Fatalf("op %d: slot %d (dst %d) not indexed back to itself", op, i, c.ents[i].dst)
		}
		walked = append(walked, c.ents[i].dst)
		prev = i
	}
	if c.tail != prev {
		t.Fatalf("op %d: tail=%d, want %d", op, c.tail, prev)
	}
	if len(walked) != len(c.idx) {
		t.Fatalf("op %d: list holds %d entries, index %d", op, len(walked), len(c.idx))
	}
	for _, f := range c.free {
		if seen[f] {
			t.Fatalf("op %d: slot %d is both free and linked", op, f)
		}
	}
	if len(walked)+len(c.free) != len(c.ents) {
		t.Fatalf("op %d: %d linked + %d free != %d slots", op, len(walked), len(c.free), len(c.ents))
	}
	if len(walked) != len(m.order) {
		t.Fatalf("op %d: %d entries, model %d", op, len(walked), len(m.order))
	}
	for i := range walked {
		if walked[i] != m.order[i] {
			t.Fatalf("op %d: recency order diverges at %d: %v vs model %v", op, i, walked, m.order)
		}
	}
}

// TestCoWCachePropertyVsModel runs a long random mix of Lookup, Insert,
// InsertDirty, Peek, Drop and DrainDirty on a small CoWCache, checking every return value against the recency model
// and the intrusive list's structural integrity after every operation.
func TestCoWCachePropertyVsModel(t *testing.T) {
	const (
		capacity = 8
		pages    = 24
		ops      = 20000
	)
	c := NewCoW(capacity * 8)
	m := &cowModel{cap: capacity, state: map[uint64]*cowEntry{}}
	rng := rand.New(rand.NewSource(11))

	var hits, misses uint64
	for op := 0; op < ops; op++ {
		dst := uint64(rng.Intn(pages))
		src := dst + 1000
		switch rng.Intn(10) {
		case 0, 1, 2: // Lookup
			gs, gp, gc := c.Lookup(dst)
			ws, wp, wc := m.lookup(dst)
			if wc {
				hits++
			} else {
				misses++
			}
			if gs != ws || gp != wp || gc != wc {
				t.Fatalf("op %d: Lookup(%d)=(%d,%v,%v), model (%d,%v,%v)", op, dst, gs, gp, gc, ws, wp, wc)
			}
		case 3, 4: // Insert (clean)
			present := rng.Intn(4) != 0
			v, wb := c.Insert(dst, src, present)
			mv, mwb := m.insert(dst, src, present, false)
			if wb != mwb || (wb && v.Dst != mv) {
				t.Fatalf("op %d: Insert(%d) victim=(%v,%v), model (%v,%v)", op, dst, v.Dst, wb, mv, mwb)
			}
		case 5, 6: // InsertDirty
			v, wb := c.InsertDirty(dst, src, true)
			mv, mwb := m.insert(dst, src, true, true)
			if wb != mwb || (wb && v.Dst != mv) {
				t.Fatalf("op %d: InsertDirty(%d) victim=(%v,%v), model (%v,%v)", op, dst, v.Dst, wb, mv, mwb)
			}
		case 7: // Drop
			c.Drop(dst)
			m.drop(dst)
		case 8: // DrainDirty: same victim set, then nothing left dirty
			var drained []uint64
			c.DrainDirty(func(v CoWVictim) { drained = append(drained, v.Dst) })
			sort.Slice(drained, func(i, j int) bool { return drained[i] < drained[j] })
			want := m.drainDirty()
			if len(drained) != len(want) {
				t.Fatalf("op %d: DrainDirty flushed %v, model %v", op, drained, want)
			}
			for i := range drained {
				if drained[i] != want[i] {
					t.Fatalf("op %d: DrainDirty flushed %v, model %v", op, drained, want)
				}
			}
		case 9: // Peek is pure
			_, cachedIn := m.state[dst]
			if _, _, gc := c.Peek(dst); gc != cachedIn {
				t.Fatalf("op %d: Peek(%d)=%v, model %v", op, dst, gc, cachedIn)
			}
		}
		checkCoWIntegrity(t, op, c, m)
	}
	if c.Hits != hits || c.Misses != misses {
		t.Errorf("counters %d/%d, model %d/%d — a non-demand path moved demand accounting",
			c.Hits, c.Misses, hits, misses)
	}
}
