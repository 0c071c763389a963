// Package ctrcache implements the memory controller's counter cache
// (Table III: 256 KB, 16-way, LRU, 64 B blocks — one decoded counter block
// per 4 KB page) with the two write strategies compared in Fig. 12
// (battery-backed write-back and write-through), plus the small reserved
// CoW-metadata cache Lelantus-CoW carves out of it (Section III-B,
// Solution 2: one 64 B slot hosts eight 8 B source-page mappings).
package ctrcache

import "lelantus/internal/ctr"

// Mode selects the counter write strategy.
type Mode int

const (
	// WriteBack (battery-backed) updates counters in the cache and flushes
	// them to NVM only on eviction. The paper's default.
	WriteBack Mode = iota
	// WriteThrough flushes every counter update to NVM immediately.
	WriteThrough
)

func (m Mode) String() string {
	if m == WriteThrough {
		return "write-through"
	}
	return "write-back"
}

type entry struct {
	page  uint64
	valid bool
	dirty bool
	tick  uint64
	blk   ctr.Block
}

// Cache caches decoded counter blocks keyed by page frame number.
type Cache struct {
	sets    uint64
	setMask uint64 // sets-1 when sets is a power of two, else 0
	ways    int
	mode    Mode
	entries []entry
	tick    uint64

	Hits, Misses uint64
	LatencyNs    uint64
}

// New creates a counter cache of sizeBytes capacity (64 B per block).
func New(sizeBytes uint64, ways int, mode Mode, latencyNs uint64) *Cache {
	sets := sizeBytes / ctr.BlockBytes / uint64(ways)
	if sets == 0 {
		sets = 1
	}
	c := &Cache{
		sets:      sets,
		ways:      ways,
		mode:      mode,
		entries:   make([]entry, sets*uint64(ways)),
		LatencyNs: latencyNs,
	}
	if sets&(sets-1) == 0 {
		c.setMask = sets - 1 // AND instead of a division on every probe
	}
	return c
}

// Mode returns the write strategy.
func (c *Cache) Mode() Mode { return c.mode }

func (c *Cache) set(page uint64) []entry {
	var s uint64
	if c.setMask != 0 {
		s = page & c.setMask
	} else {
		s = page % c.sets
	}
	return c.entries[s*uint64(c.ways) : (s+1)*uint64(c.ways)]
}

// Get returns the cached counter block for the page, or nil on miss.
func (c *Cache) Get(page uint64) *ctr.Block {
	c.tick++
	set := c.set(page)
	for i := range set {
		if set[i].valid && set[i].page == page {
			set[i].tick = c.tick
			c.Hits++
			return &set[i].blk
		}
	}
	c.Misses++
	return nil
}

// Peek returns the cached counter block for the page without any side
// effects: no LRU promotion, no hit/miss accounting, no tick advance.
// Introspection paths that must not perturb measurements (Engine.IsCoW and
// friends) use it instead of Get.
func (c *Cache) Peek(page uint64) *ctr.Block {
	set := c.set(page)
	for i := range set {
		if set[i].valid && set[i].page == page {
			return &set[i].blk
		}
	}
	return nil
}

// Victim is an evicted dirty counter block that must be packed and written
// to the NVM metadata region.
type Victim struct {
	Page uint64
	Blk  ctr.Block
}

// Put installs a counter block fetched from NVM (or freshly created) and
// returns the dirty victim, if any.
func (c *Cache) Put(page uint64, blk ctr.Block) (victim Victim, needWB bool) {
	c.tick++
	set := c.set(page)
	for i := range set {
		if set[i].valid && set[i].page == page {
			set[i].blk = blk
			set[i].tick = c.tick
			return Victim{}, false
		}
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
			victim = Victim{Page: set[pick].page, Blk: set[pick].blk}
			needWB = true
		}
	}
	set[pick] = entry{page: page, valid: true, tick: c.tick, blk: blk}
	return victim, needWB
}

// MarkDirty flags a resident counter block as modified. It reports whether
// the block must be written through immediately (write-through mode).
func (c *Cache) MarkDirty(page uint64) (writeThrough bool) {
	if c.mode == WriteThrough {
		return true
	}
	set := c.set(page)
	for i := range set {
		if set[i].valid && set[i].page == page {
			set[i].dirty = true
		}
	}
	return false
}

// Invalidate drops the page's counter block, returning it if it was dirty.
func (c *Cache) Invalidate(page uint64) (victim Victim, needWB bool) {
	set := c.set(page)
	for i := range set {
		if set[i].valid && set[i].page == page {
			if set[i].dirty {
				victim = Victim{Page: page, Blk: set[i].blk}
				needWB = true
			}
			set[i] = entry{}
			return victim, needWB
		}
	}
	return Victim{}, false
}

// DrainDirty hands every dirty resident block to sink and cleans it
// (end-of-run persistence, as a battery-backed cache would on power loss).
func (c *Cache) DrainDirty(sink func(Victim)) {
	for i := range c.entries {
		e := &c.entries[i]
		if e.valid && e.dirty {
			sink(Victim{Page: e.page, Blk: e.blk})
			e.dirty = false
		}
	}
}

// MissRate returns the fraction of lookups that missed.
func (c *Cache) MissRate() float64 {
	t := c.Hits + c.Misses
	if t == 0 {
		return 0
	}
	return float64(c.Misses) / float64(t)
}

// CoWCache is the reserved slice of the counter cache that holds
// supplementary CoW mappings (destination page -> source page) for
// Lelantus-CoW. Eight 8 B mappings share one 64 B slot. Fully associative
// with LRU replacement, implemented as a key→slot map plus an intrusive
// recency list so lookup, insert and eviction are all O(1) — the naive
// scan-for-LRU eviction dominated whole Lelantus-CoW runs.
type CoWCache struct {
	ents       []cowEntry
	idx        map[uint64]int32
	head, tail int32 // most/least recently used, -1 when empty
	free       []int32

	Hits, Misses uint64
}

type cowEntry struct {
	dst        uint64
	src        uint64
	present    bool // false caches a negative result ("no source mapping")
	dirty      bool // entry newer than NVM; must write back before loss
	prev, next int32
}

// CoWVictim is a dirty CoW-table entry displaced from the cache (or handed
// out by DrainDirty) whose NVM image is stale: the caller must persist it.
// Lazy persistence strategies are the only producers — eager write-through
// never leaves an entry dirty.
type CoWVictim struct {
	Dst     uint64
	Src     uint64
	Present bool
}

// NewCoW creates a CoW-mapping cache backed by sizeBytes of counter-cache
// capacity (sizeBytes/8 mappings).
func NewCoW(sizeBytes uint64) *CoWCache {
	capacity := int(sizeBytes / 8)
	if capacity < 1 {
		capacity = 1
	}
	c := &CoWCache{
		ents: make([]cowEntry, capacity),
		idx:  make(map[uint64]int32, capacity),
		free: make([]int32, 0, capacity),
		head: -1, tail: -1,
	}
	for i := capacity - 1; i >= 0; i-- {
		c.free = append(c.free, int32(i))
	}
	return c
}

func (c *CoWCache) unlink(i int32) {
	e := &c.ents[i]
	if e.prev >= 0 {
		c.ents[e.prev].next = e.next
	} else {
		c.head = e.next
	}
	if e.next >= 0 {
		c.ents[e.next].prev = e.prev
	} else {
		c.tail = e.prev
	}
}

func (c *CoWCache) pushFront(i int32) {
	e := &c.ents[i]
	e.prev, e.next = -1, c.head
	if c.head >= 0 {
		c.ents[c.head].prev = i
	}
	c.head = i
	if c.tail < 0 {
		c.tail = i
	}
}

// Lookup returns the cached mapping state for a destination page: cached
// reports whether the cache knows the answer at all, and present whether a
// source mapping exists.
func (c *CoWCache) Lookup(dst uint64) (src uint64, present, cached bool) {
	if i, hit := c.idx[dst]; hit {
		if c.head != i {
			c.unlink(i)
			c.pushFront(i)
		}
		c.Hits++
		e := &c.ents[i]
		return e.src, e.present, true
	}
	c.Misses++
	return 0, false, false
}

// Insert caches a mapping (or, with present=false, its absence) that is
// already durable in the NVM CoW-metadata region, evicting the LRU entry
// when full. The entry is installed clean: an update-in-place clears any
// dirty flag (the durable image just caught up). If the eviction displaces
// a dirty entry its pending state is returned and the caller must persist
// it — losing it silently would drop a mapping a lazy strategy still owes
// the NVM.
func (c *CoWCache) Insert(dst, src uint64, present bool) (victim CoWVictim, needWB bool) {
	return c.insert(dst, src, present, false)
}

// InsertDirty caches a mapping that is *not* yet durable (lazy-persistence
// insert): the entry is marked dirty and must reach NVM via eviction
// write-back or DrainDirty. Returns any displaced dirty entry exactly like
// Insert.
func (c *CoWCache) InsertDirty(dst, src uint64, present bool) (victim CoWVictim, needWB bool) {
	return c.insert(dst, src, present, true)
}

func (c *CoWCache) insert(dst, src uint64, present, dirty bool) (victim CoWVictim, needWB bool) {
	if i, ok := c.idx[dst]; ok {
		e := &c.ents[i]
		e.src = src
		e.present = present
		e.dirty = dirty
		if c.head != i {
			c.unlink(i)
			c.pushFront(i)
		}
		return CoWVictim{}, false
	}
	var slot int32
	if n := len(c.free); n > 0 {
		slot = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		slot = c.tail
		c.unlink(slot)
		old := &c.ents[slot]
		if old.dirty {
			victim = CoWVictim{Dst: old.dst, Src: old.src, Present: old.present}
			needWB = true
		}
		delete(c.idx, c.ents[slot].dst)
	}
	c.ents[slot] = cowEntry{dst: dst, src: src, present: present, dirty: dirty}
	c.pushFront(slot)
	c.idx[dst] = slot
	return victim, needWB
}

// Peek returns the cached mapping state for a destination page without any
// side effects: no LRU promotion and no hit/miss accounting. Introspection
// and persistence-policy decisions use it where Lookup would perturb the
// measured miss rate.
func (c *CoWCache) Peek(dst uint64) (src uint64, present, cached bool) {
	if i, hit := c.idx[dst]; hit {
		e := &c.ents[i]
		return e.src, e.present, true
	}
	return 0, false, false
}

// DrainDirty hands every dirty entry to sink in slot order (deterministic
// across runs) and marks it clean — the battery-backed burst that flushes
// lazily persisted CoW mappings at crash or end of run.
func (c *CoWCache) DrainDirty(sink func(CoWVictim)) {
	for i := range c.ents {
		e := &c.ents[i]
		if e.dirty {
			sink(CoWVictim{Dst: e.dst, Src: e.src, Present: e.present})
			e.dirty = false
		}
	}
}

// Drop removes a mapping (page_phyc / page_free). The slot is zeroed so a
// later DrainDirty never resurrects the dead entry.
func (c *CoWCache) Drop(dst uint64) {
	if i, ok := c.idx[dst]; ok {
		c.unlink(i)
		delete(c.idx, dst)
		c.ents[i] = cowEntry{}
		c.free = append(c.free, i)
	}
}

// MissRate returns the fraction of lookups that missed (Fig. 10b).
func (c *CoWCache) MissRate() float64 {
	t := c.Hits + c.Misses
	if t == 0 {
		return 0
	}
	return float64(c.Misses) / float64(t)
}
