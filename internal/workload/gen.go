package workload

import (
	"fmt"
	"math/rand"

	"lelantus/internal/mem"
)

// unitBytes returns the mapping unit for the page-size mode.
func unitBytes(huge bool) uint64 {
	if huge {
		return mem.HugePageBytes
	}
	return mem.PageBytes
}

// writeAllLines stores one full line at every line of the region.
func writeAllLines(b *Builder, p, r int, bytes uint64, val byte) {
	for off := uint64(0); off < bytes; off += mem.LineBytes {
		b.Store(p, r, off, mem.LineBytes, val)
	}
}

// writeSparse stores one full line at `per` evenly spaced lines of every
// 64-line page of the region (sparse first-touch, the common case for
// buffer pools and heaps whose pages are only partially filled).
func writeSparse(b *Builder, p, r int, bytes uint64, per int, val byte) {
	if per <= 0 {
		per = 1
	}
	if per > 64 {
		per = 64
	}
	stride := uint64(64 / per)
	for page := uint64(0); page < bytes/mem.PageBytes; page++ {
		for l := 0; l < per; l++ {
			off := page*mem.PageBytes + uint64(l)*stride*mem.LineBytes
			b.Store(p, r, off, mem.LineBytes, val)
		}
	}
}

// updateEven spreads bytesPerUnit of writes evenly over each mapping unit
// of the region, the paper's forkbench access pattern: when fewer bytes
// than lines are written, single-byte stores land on evenly spaced lines;
// beyond that, lines fill up until the whole unit is written.
func updateEven(b *Builder, p, r int, regionBytes uint64, huge bool, bytesPerUnit uint64, val byte) {
	unit := unitBytes(huge)
	linesPerUnit := unit / mem.LineBytes
	for base := uint64(0); base < regionBytes; base += unit {
		touched := bytesPerUnit
		if touched > linesPerUnit {
			touched = linesPerUnit
		}
		if touched == 0 {
			touched = 1
		}
		perLine := bytesPerUnit / touched
		// Updates are scattered application stores, not cache-bypassing
		// memsets: keep each store sub-line so write allocation (and the
		// CoW redirect it triggers) happens, whatever the byte count.
		if perLine > mem.LineBytes/2 {
			perLine = mem.LineBytes / 2
		}
		if perLine == 0 {
			perLine = 1
		}
		stride := linesPerUnit / touched
		if stride == 0 {
			stride = 1
		}
		for l := uint64(0); l < touched; l++ {
			off := base + (l*stride)*mem.LineBytes
			b.Store(p, r, off, int(perLine), val)
		}
	}
}

// ForkbenchParams parameterises the forkbench micro-benchmark (V-D).
type ForkbenchParams struct {
	RegionBytes  uint64 // total allocation updated by the child
	BytesPerUnit uint64 // bytes updated within each page, evenly spread
	Huge         bool
	// ChildExits appends the child's exit to the measured phase.
	ChildExits bool
}

// DefaultForkbench returns the paper's Section V-B settings: a 4 MB
// region; 32 cachelines updated per 4 KB page, 512 per 2 MB page.
func DefaultForkbench(huge bool) ForkbenchParams {
	p := ForkbenchParams{RegionBytes: 16 << 20, Huge: huge, ChildExits: true}
	if huge {
		p.BytesPerUnit = 512 // 512 cachelines touched per 2 MB page
	} else {
		p.BytesPerUnit = 32 // 32 cachelines touched per 4 KB page
	}
	return p
}

// Forkbench builds the fork micro-benchmark: initialise a region, fork,
// and measure the child updating its copy.
func Forkbench(p ForkbenchParams) Script {
	b := NewBuilder(fmt.Sprintf("forkbench[%s,%dB/page]", pageMode(p.Huge), p.BytesPerUnit))
	const parent, child = 0, 1
	b.Spawn(parent)
	b.Mmap(parent, 0, p.RegionBytes, p.Huge)
	writeAllLines(b, parent, 0, p.RegionBytes, 0xA5)
	b.Fork(parent, child)
	b.BeginMeasure()
	updateEven(b, child, 0, p.RegionBytes, p.Huge, p.BytesPerUnit, 0x5A)
	b.EndMeasure()
	if p.ChildExits {
		b.Exit(child)
	}
	b.Exit(parent)
	return b.Script()
}

func pageMode(huge bool) string {
	if huge {
		return "2MB"
	}
	return "4KB"
}

// Redis models the paper's snapshot scenario: a loaded key-value store
// forks a background-save child that reads the whole dataset while the
// parent keeps serving set/get requests on CoW-shared pages.
func Redis(huge bool, seed int64) Script {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder("redis[" + pageMode(huge) + "]")
	const parent, child = 0, 1
	dataBytes := uint64(16 << 20)
	b.Spawn(parent)
	b.Mmap(parent, 0, dataBytes, huge)
	writeAllLines(b, parent, 0, dataBytes, 0x11) // load 100K key-value pairs

	b.Fork(parent, child) // bgsave
	// The paper reports the parent's insert performance while the child
	// persists, not the wall time of the interleaved pair.
	b.MeasureProcess(parent)
	b.BeginMeasure()

	// Interleave the child's sequential persist scan with the parent's
	// request stream (10K operations, half sets, half gets).
	const ops = 10000
	persistChunk := dataBytes / mem.LineBytes / ops
	if persistChunk == 0 {
		persistChunk = 1
	}
	persistOff := uint64(0)
	for i := 0; i < ops; i++ {
		for j := uint64(0); j < persistChunk && persistOff < dataBytes; j++ {
			b.Load(child, 0, persistOff, 16)
			persistOff += mem.LineBytes
		}
		keyOff := (rng.Uint64() % (dataBytes / mem.LineBytes)) * mem.LineBytes
		if rng.Intn(10) < 3 {
			// Hot keys: a small working set absorbs a large share of the
			// requests, so its counters see many increments (Fig. 10a).
			keyOff = (rng.Uint64() % 64) * mem.LineBytes
		}
		b.Compute(parent, 250) // request parse + hash lookup
		if i%2 == 0 {
			// set: update key and value lines
			b.Store(parent, 0, keyOff, 32, byte(i))
			next := keyOff + mem.LineBytes
			if next >= dataBytes {
				next = 0
			}
			b.Store(parent, 0, next, 32, byte(i+1))
		} else {
			b.Load(parent, 0, keyOff, 32)
		}
	}
	for ; persistOff < dataBytes; persistOff += mem.LineBytes {
		b.Load(child, 0, persistOff, 16)
	}
	b.EndMeasure()
	b.Exit(child)
	b.Exit(parent)
	return b.Script()
}

// Boot models the Buildroot init phase: init's image is resident, and a
// series of services is forked from it; each service dirties a slice of
// the shared image (CoW), loads its own program data with DMA-style
// non-temporal writes into fresh mappings, runs briefly and stays up.
func Boot(huge bool, seed int64) Script {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder("boot[" + pageMode(huge) + "]")
	const initProc = 0
	imageBytes := uint64(4 << 20) // init's writable image
	b.Spawn(initProc)
	b.Mmap(initProc, 0, imageBytes, huge)
	writeAllLines(b, initProc, 0, imageBytes, 0x42)
	b.BeginMeasure()

	const services = 12
	unit := unitBytes(huge)
	for s := 0; s < services; s++ {
		child := 1 + s
		b.Fork(initProc, child)
		// The service dirties scattered lines of the shared image: every
		// third unit, four lines each.
		for base := uint64(0); base < imageBytes; base += 3 * unit {
			for l := 0; l < 4; l++ {
				off := base + (rng.Uint64()%(unit/mem.LineBytes))*mem.LineBytes
				b.Store(child, 0, off, 8, byte(s))
			}
		}
		// Load the service binary/config via DMA into a fresh mapping.
		region := 1 + s
		fileBytes := uint64(256 << 10)
		b.Mmap(child, region, fileBytes, huge)
		for off := uint64(0); off < fileBytes; off += mem.LineBytes {
			b.StoreNT(child, region, off, byte(s))
		}
		// Brief execution: read config and touch the stack.
		for i := 0; i < 200; i++ {
			b.Load(child, region, (rng.Uint64()%(fileBytes/mem.LineBytes))*mem.LineBytes, 8)
		}
		// Service startup work (option parsing, socket setup, ...).
		b.Compute(child, 5_000_000)
	}
	// Shutdown of half the services at the end of the boot phase.
	for s := 0; s < services; s += 2 {
		b.Exit(1 + s)
	}
	b.EndMeasure()
	for s := 1; s < services; s += 2 {
		b.Exit(1 + s)
	}
	b.Exit(initProc)
	return b.Script()
}

// Compile models gcc's cc1 phases: a driver forks one cc1 per unit; each
// child allocates a heap, first-touch-writes it (demand zero), churns on
// it with mixed reads/writes, and exits.
func Compile(huge bool, seed int64) Script {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder("compile[" + pageMode(huge) + "]")
	const driver = 0
	sharedBytes := uint64(512 << 10) // driver state shared with cc1
	b.Spawn(driver)
	b.Mmap(driver, 0, sharedBytes, huge)
	writeAllLines(b, driver, 0, sharedBytes, 0x7C)
	b.BeginMeasure()

	const units = 6
	for u := 0; u < units; u++ {
		child := 1 + u
		region := 1 + u
		b.Fork(driver, child)
		heapBytes := uint64(4 << 20)
		b.Mmap(child, region, heapBytes, huge)
		// First-touch the heap: the AST/IR allocator fills pages only
		// partially (24 of 64 lines), so demand-zero always zeroes far
		// more than the compiler ever writes.
		writeSparse(b, child, region, heapBytes, 24, byte(u+1))
		// Optimisation passes: random read-modify-write churn.
		lines := heapBytes / mem.LineBytes
		for i := 0; i < 8000; i++ {
			off := (rng.Uint64() % lines) * mem.LineBytes
			if i%3 == 0 {
				b.Store(child, region, off, 16, byte(i))
			} else {
				b.Load(child, region, off, 16)
			}
		}
		// cc1 touches a few lines of the driver's shared state (CoW).
		for i := 0; i < 32; i++ {
			off := (rng.Uint64() % (sharedBytes / mem.LineBytes)) * mem.LineBytes
			b.Store(child, 0, off, 8, byte(u))
		}
		// The optimisation and code-generation passes are CPU-bound.
		b.Compute(child, 2_500_000)
		b.Exit(child)
	}
	b.EndMeasure()
	b.Exit(driver)
	return b.Script()
}

// MariaDB models loading the sample database: the server allocates a
// buffer pool, DMA-writes table rows into it on demand, applies B-tree
// style scattered updates, and forks a background flush thread that scans
// the pool.
func MariaDB(huge bool, seed int64) Script {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder("mariadb[" + pageMode(huge) + "]")
	const server = 0
	poolBytes := uint64(8 << 20)
	b.Spawn(server)
	b.Mmap(server, 0, poolBytes, huge)
	b.BeginMeasure()

	lines := poolBytes / mem.LineBytes
	// Load phase: rows arrive via DMA into the buffer pool, sparsely — 12
	// of the 64 lines of each 4 KB pool page hold row data, so the
	// demand-zero fill of each page is mostly wasted work. A background
	// flush thread forks midway, making the rest of the load and the index
	// maintenance CoW traffic.
	const flusher = 1
	const rowsPerPage = 12
	npages := poolBytes / mem.PageBytes
	for page := uint64(0); page < npages; page++ {
		if page == npages/2 {
			b.Fork(server, flusher)
			for f := uint64(0); f < poolBytes/2; f += mem.LineBytes {
				b.Load(flusher, 0, f, 16)
			}
		}
		for l := 0; l < rowsPerPage; l++ {
			off := page*mem.PageBytes + uint64(l)*(64/rowsPerPage)*mem.LineBytes
			b.StoreNT(server, 0, off, 0xDB)
		}
	}
	// Index maintenance: scattered small updates and lookups, with the
	// SQL/parse/B-tree computation between batches.
	for i := 0; i < 12000; i++ {
		off := (rng.Uint64() % lines) * mem.LineBytes
		if i%4 == 0 {
			b.Store(server, 0, off, 24, byte(i))
		} else {
			b.Load(server, 0, off, 24)
		}
		if i%1000 == 999 {
			b.Compute(server, 2_000_000)
		}
	}
	// The flush thread scans the rest of the pool before exiting.
	for off := poolBytes / 2; off < poolBytes; off += mem.LineBytes {
		b.Load(flusher, 0, off, 16)
	}
	for i := 0; i < 3000; i++ {
		off := (rng.Uint64() % lines) * mem.LineBytes
		b.Store(server, 0, off, 24, byte(i))
		if i%1000 == 999 {
			b.Compute(server, 2_000_000)
		}
	}
	b.Exit(flusher)
	b.EndMeasure()
	b.Exit(server)
	return b.Script()
}

// ShellParams sizes the shell workload (see Shell for the access pattern).
type ShellParams struct {
	Huge bool
	Seed int64
	// ImageBytes is the forked shell+libc image every child dirties.
	ImageBytes uint64
	// Spawns is the number of short-lived children.
	Spawns int
	// Scan, when true, has each child read back one line of every page it
	// dirtied — the `find` pass over the tree. The setup writes materialise
	// only a few random lines per page, so almost every scan load resolves
	// the page's fresh redirect chain. False (the zero value) keeps the
	// catalogue access pattern byte for byte.
	Scan bool
}

// DefaultShell returns the catalogue-sized shell parameters.
func DefaultShell(huge bool) ShellParams {
	return ShellParams{Huge: huge, ImageBytes: 6 << 20, Spawns: 12}
}

// Shell models `find | ls` over a directory tree: a long chain of
// short-lived forked children, each dirtying a few lines of the shell
// image, reading directory data via DMA into a small scratch mapping, and
// exiting immediately.
func Shell(huge bool, seed int64) Script {
	p := DefaultShell(huge)
	p.Seed = seed
	return ShellWith(p)
}

// ShellWith is Shell at explicit scale: a larger-than-default image turns
// each child's pass over the shared pages into counter-cache capacity
// misses (BenchmarkChainHeavy's shell cell), while the default parameters
// reproduce the catalogue workload byte for byte.
func ShellWith(p ShellParams) Script {
	huge := p.Huge
	rng := rand.New(rand.NewSource(p.Seed))
	b := NewBuilder("shell[" + pageMode(huge) + "]")
	const shell = 0
	imageBytes := p.ImageBytes // shell + libc image: larger than LLC
	b.Spawn(shell)
	b.Mmap(shell, 0, imageBytes, huge)
	writeAllLines(b, shell, 0, imageBytes, 0x5E)
	b.BeginMeasure()

	spawns := p.Spawns
	unit := unitBytes(huge)
	for s := 0; s < spawns; s++ {
		child := 1 + s
		region := 1 + s
		b.Fork(shell, child)
		// Argument/environment/heap setup dirties a few lines of every
		// second page of the shared image.
		for base := uint64(0); base < imageBytes; base += 2 * unit {
			for l := 0; l < 3; l++ {
				off := base + (rng.Uint64()%(unit/mem.LineBytes))*mem.LineBytes
				b.Store(child, 0, off, 8, byte(s))
			}
		}
		if p.Scan {
			// The find pass: one load per dirtied page at a fixed line the
			// random setup writes rarely hit, so each read traverses the
			// redirect planted above with the hop metadata likely cold.
			for base := uint64(0); base < imageBytes; base += 2 * unit {
				b.Load(child, 0, base+unit/2, 8)
			}
		}
		scratch := uint64(32 << 10)
		b.Mmap(child, region, scratch, huge)
		for off := uint64(0); off < scratch; off += mem.LineBytes {
			b.StoreNT(child, region, off, byte(s))
		}
		for i := 0; i < 64; i++ {
			b.Load(child, region, (rng.Uint64()%(scratch/mem.LineBytes))*mem.LineBytes, 8)
		}
		// ls formatting / directory sort.
		b.Compute(child, 1_500_000)
		b.Exit(child)
	}
	b.EndMeasure()
	b.Exit(shell)
	return b.Script()
}

// NonCopy is the overhead control (Fig. 9 "non-copy"): the forkbench
// update pattern over fully initialised private memory, with no fork and
// hence no CoW activity at all.
func NonCopy(huge bool, _ int64) Script {
	b := NewBuilder("non-copy[" + pageMode(huge) + "]")
	const proc = 0
	regionBytes := uint64(4 << 20)
	if huge {
		regionBytes = 16 << 20
	}
	b.Spawn(proc)
	b.Mmap(proc, 0, regionBytes, huge)
	writeAllLines(b, proc, 0, regionBytes, 0xA5)
	b.BeginMeasure()
	writeAllLines(b, proc, 0, regionBytes, 0x5A)
	b.EndMeasure()
	b.Exit(proc)
	return b.Script()
}

// Spec names a workload in the benchmark catalogue (Table IV).
type Spec struct {
	Name        string
	Description string
	Build       func(huge bool, seed int64) Script
}

// Catalogue lists the paper's benchmarks plus the non-copy control, in
// Table IV order.
func Catalogue() []Spec {
	return []Spec{
		{"boot", "Buildroot init phase: services forked from init, DMA program loads", Boot},
		{"compile", "GNU C compiler cc1 phases: per-unit forks, demand-zero heaps", Compile},
		{"forkbench", "fork micro-benchmark: child updates CoW-shared pages", func(huge bool, _ int64) Script {
			return Forkbench(DefaultForkbench(huge))
		}},
		{"redis", "in-memory KV store: inserts during background-save fork", Redis},
		{"mariadb", "on-disk database loading a sample DB into its buffer pool", MariaDB},
		{"shell", "find/ls script: a chain of short-lived forked children", Shell},
		{"non-copy", "overhead control: same update load, no fork, no CoW", NonCopy},
	}
}

// ByName looks a workload up in the catalogue.
func ByName(name string) (Spec, error) {
	for _, s := range Catalogue() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("workload: unknown workload %q", name)
}
