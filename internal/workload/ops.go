// Package workload generates the memory-operation scripts that drive the
// simulator: the paper's forkbench micro-benchmark (Section V-D) and
// synthetic versions of the six copy/initialisation-intensive applications
// of Table IV, calibrated so their copy/init traffic mix approaches the
// shares reported in Table V.
//
// A script is a flat list of operations over process and region *slots*;
// the simulator binds slots to kernel PIDs and mmap-returned addresses at
// execution time, so scripts are position-independent and deterministic.
//
// Scripts are the largest live data of a Fig. 9 run (redis alone is over
// half a million ops), so an Op is packed into 56 bytes: slots are uint16
// (a script uses at most MaxSlots of each kind), access sizes are int32,
// and the mmap/munmap length and the compute busy time share one argument
// word. The trace package's on-disk formats do not depend on this layout.
package workload

import (
	"fmt"
	"math"
)

// Kind enumerates script operations.
type Kind uint8

const (
	// OpSpawn creates the initial process for a slot.
	OpSpawn Kind = iota
	// OpMmap maps Arg bytes of anonymous memory (huge pages if Huge) into
	// the process and binds the result to the region slot.
	OpMmap
	// OpLoad reads Size bytes at Region+Off.
	OpLoad
	// OpStore writes Size bytes of pattern Val at Region+Off.
	OpStore
	// OpStoreNT writes one full 64 B line at Region+Off with a
	// non-temporal store (DMA-style bulk I/O).
	OpStoreNT
	// OpFork forks Proc into the NewProc slot.
	OpFork
	// OpExit terminates the process.
	OpExit
	// OpMunmap unmaps Arg bytes at Region+Off.
	OpMunmap
	// OpKSM merges the page at Region+Off across the listed process slots.
	OpKSM
	// OpCompute models off-memory CPU work: the process burns Arg
	// nanoseconds without issuing memory requests. Real applications
	// spend most of their time here; without it every workload would be
	// a pure memory stress and speedups would be inflated.
	OpCompute
	// OpBeginMeasure starts the measured phase (statistics snapshot).
	OpBeginMeasure
	// OpEndMeasure ends the measured phase: the machine quiesces (all
	// dirty cache and metadata state is written back) and the statistics
	// are snapshotted. Subsequent ops (typically teardown) run uncounted.
	OpEndMeasure
)

// Valid reports whether k is a defined operation kind.
func (k Kind) Valid() bool { return k <= OpEndMeasure }

// MaxSlots bounds the process and region slots of one script: Op stores
// slot indices as uint16.
const MaxSlots = 1 << 16

// CheckSlot returns an error unless v fits an Op slot field.
func CheckSlot(v int) error {
	if v < 0 || v >= MaxSlots {
		return fmt.Errorf("slot %d out of range [0, %d)", v, MaxSlots)
	}
	return nil
}

// CheckSize returns an error unless v fits Op.Size.
func CheckSize(v int) error {
	if v < 0 || v > math.MaxInt32 {
		return fmt.Errorf("size %d out of range [0, %d]", v, math.MaxInt32)
	}
	return nil
}

// Op is one scripted operation. Fields are ordered largest first so the
// struct packs into 56 bytes; Procs is its only pointer-bearing field.
type Op struct {
	Off uint64
	// Arg is the operation's argument word: the length in bytes for
	// OpMmap and OpMunmap, the busy time in ns for OpCompute. No kind
	// uses both.
	Arg     uint64
	Procs   []int // OpKSM: process slots to merge across
	Size    int32
	Proc    uint16
	NewProc uint16
	Region  uint16
	Kind    Kind
	Val     byte
	Huge    bool
}

func (o Op) String() string {
	switch o.Kind {
	case OpSpawn:
		return fmt.Sprintf("spawn p%d", o.Proc)
	case OpMmap:
		return fmt.Sprintf("mmap p%d r%d %dB huge=%v", o.Proc, o.Region, o.Arg, o.Huge)
	case OpLoad:
		return fmt.Sprintf("load p%d r%d+%#x %dB", o.Proc, o.Region, o.Off, o.Size)
	case OpStore:
		return fmt.Sprintf("store p%d r%d+%#x %dB=%#x", o.Proc, o.Region, o.Off, o.Size, o.Val)
	case OpStoreNT:
		return fmt.Sprintf("storent p%d r%d+%#x", o.Proc, o.Region, o.Off)
	case OpFork:
		return fmt.Sprintf("fork p%d -> p%d", o.Proc, o.NewProc)
	case OpExit:
		return fmt.Sprintf("exit p%d", o.Proc)
	case OpMunmap:
		return fmt.Sprintf("munmap p%d r%d+%#x %dB", o.Proc, o.Region, o.Off, o.Arg)
	case OpKSM:
		return fmt.Sprintf("ksm r%d+%#x procs=%v", o.Region, o.Off, o.Procs)
	case OpCompute:
		return fmt.Sprintf("compute p%d %dns", o.Proc, o.Arg)
	case OpBeginMeasure:
		return "begin-measure"
	case OpEndMeasure:
		return "end-measure"
	}
	return fmt.Sprintf("op(%d)", int(o.Kind))
}

// Script is a named operation sequence.
//
// A Script is immutable once built: nothing in the simulator writes to it,
// and sim.Machine.Run copies the one shared slice an Op carries (Procs)
// before handing it downstream. One Script value may therefore be shared
// read-only by any number of concurrently running machines — the
// experiment harness interns each generated script and runs it on every
// scheme's grid cell.
type Script struct {
	Name string
	Ops  []Op
	// Procs and Regions are the numbers of slots the script uses.
	Procs, Regions int
	// MeasureProc, when >= 0, restricts the reported execution time to the
	// simulated time consumed by that process slot's operations (the
	// paper's Redis experiment measures the parent's insert latency while
	// the bgsave child runs). -1 measures wall-clock machine time.
	MeasureProc int
	// err is the first Builder argument an Op field could not hold.
	err error
}

// Err returns the first slot or size passed to the Builder that made s
// which an Op field cannot hold, naming its op index; nil if there was
// none. sim.Machine.Run and the trace encoders refuse a script with a
// non-nil Err rather than run or record truncated values.
func (s Script) Err() error { return s.err }

// Builder assembles scripts with slot bookkeeping. Arguments are narrowed
// to Op's fields, but never silently: the first slot outside CheckSlot's
// range or size outside CheckSize's is recorded in the script's Err, and
// Script.Procs and Script.Regions are derived from the untruncated slot
// numbers. Either way sim.Machine.Run rejects the script before running
// any op.
type Builder struct {
	s Script
}

// NewBuilder starts a script with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{s: Script{Name: name, MeasureProc: -1}}
}

// Err returns the script's Err so far.
func (b *Builder) Err() error { return b.s.err }

func (b *Builder) check(err error) {
	if err != nil && b.s.err == nil {
		b.s.err = fmt.Errorf("workload: op %d: %w", len(b.s.Ops), err)
	}
}

func (b *Builder) slot(v int) uint16 {
	b.check(CheckSlot(v))
	return uint16(v)
}

func (b *Builder) size(v int) int32 {
	b.check(CheckSize(v))
	return int32(v)
}

func (b *Builder) touchProc(slots ...int) {
	for _, p := range slots {
		if p+1 > b.s.Procs {
			b.s.Procs = p + 1
		}
	}
}

func (b *Builder) touchRegion(r int) {
	if r+1 > b.s.Regions {
		b.s.Regions = r + 1
	}
}

// Spawn creates process slot p.
func (b *Builder) Spawn(p int) *Builder {
	b.touchProc(p)
	b.s.Ops = append(b.s.Ops, Op{Kind: OpSpawn, Proc: b.slot(p)})
	return b
}

// Mmap maps bytes into process p, binding region slot r.
func (b *Builder) Mmap(p, r int, bytes uint64, huge bool) *Builder {
	b.touchProc(p)
	b.touchRegion(r)
	b.s.Ops = append(b.s.Ops, Op{Kind: OpMmap, Proc: b.slot(p), Region: b.slot(r), Arg: bytes, Huge: huge})
	return b
}

// Load reads size bytes at r+off in process p.
func (b *Builder) Load(p, r int, off uint64, size int) *Builder {
	b.touchProc(p)
	b.touchRegion(r)
	b.s.Ops = append(b.s.Ops, Op{Kind: OpLoad, Proc: b.slot(p), Region: b.slot(r), Off: off, Size: b.size(size)})
	return b
}

// Store writes size bytes of val at r+off in process p.
func (b *Builder) Store(p, r int, off uint64, size int, val byte) *Builder {
	b.touchProc(p)
	b.touchRegion(r)
	b.s.Ops = append(b.s.Ops, Op{Kind: OpStore, Proc: b.slot(p), Region: b.slot(r), Off: off, Size: b.size(size), Val: val})
	return b
}

// StoreNT writes one full line at r+off with a non-temporal store.
func (b *Builder) StoreNT(p, r int, off uint64, val byte) *Builder {
	b.touchProc(p)
	b.touchRegion(r)
	b.s.Ops = append(b.s.Ops, Op{Kind: OpStoreNT, Proc: b.slot(p), Region: b.slot(r), Off: off, Val: val})
	return b
}

// Fork forks p into slot child.
func (b *Builder) Fork(p, child int) *Builder {
	b.touchProc(p, child)
	b.s.Ops = append(b.s.Ops, Op{Kind: OpFork, Proc: b.slot(p), NewProc: b.slot(child)})
	return b
}

// Exit terminates process p.
func (b *Builder) Exit(p int) *Builder {
	b.touchProc(p)
	b.s.Ops = append(b.s.Ops, Op{Kind: OpExit, Proc: b.slot(p)})
	return b
}

// Munmap unmaps bytes at r+off.
func (b *Builder) Munmap(p, r int, off, bytes uint64) *Builder {
	b.touchProc(p)
	b.touchRegion(r)
	b.s.Ops = append(b.s.Ops, Op{Kind: OpMunmap, Proc: b.slot(p), Region: b.slot(r), Off: off, Arg: bytes})
	return b
}

// KSM merges the page at r+off across the given process slots.
func (b *Builder) KSM(r int, off uint64, procs ...int) *Builder {
	b.touchRegion(r)
	b.touchProc(procs...)
	for _, p := range procs {
		b.check(CheckSlot(p))
	}
	b.s.Ops = append(b.s.Ops, Op{Kind: OpKSM, Region: b.slot(r), Off: off, Procs: procs})
	return b
}

// Compute burns ns nanoseconds of CPU time in process p.
func (b *Builder) Compute(p int, ns uint64) *Builder {
	b.touchProc(p)
	b.s.Ops = append(b.s.Ops, Op{Kind: OpCompute, Proc: b.slot(p), Arg: ns})
	return b
}

// MeasureProcess restricts the reported execution time to process slot p.
func (b *Builder) MeasureProcess(p int) *Builder {
	b.touchProc(p)
	b.s.MeasureProc = p
	return b
}

// BeginMeasure starts the measured phase.
func (b *Builder) BeginMeasure() *Builder {
	b.s.Ops = append(b.s.Ops, Op{Kind: OpBeginMeasure})
	return b
}

// EndMeasure ends the measured phase.
func (b *Builder) EndMeasure() *Builder {
	b.s.Ops = append(b.s.Ops, Op{Kind: OpEndMeasure})
	return b
}

// Script finalises and returns the script.
func (b *Builder) Script() Script { return b.s }
