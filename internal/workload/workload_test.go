package workload

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"lelantus/internal/mem"
)

// validate checks script well-formedness: ops only reference declared
// slots, spawn/fork precede use, and loads/stores stay inside one line.
func validate(t *testing.T, s Script) {
	t.Helper()
	live := make([]bool, s.Procs)
	mapped := make([]bool, s.Regions)
	for i, op := range s.Ops {
		if op.Kind == OpBeginMeasure || op.Kind == OpEndMeasure {
			continue
		}
		if op.Kind == OpKSM {
			for _, p := range op.Procs {
				if p >= s.Procs || !live[p] {
					t.Fatalf("op %d (%s): dead/unknown proc %d", i, op, p)
				}
			}
			continue
		}
		if int(op.Proc) >= s.Procs {
			t.Fatalf("op %d (%s): proc slot %d out of range %d", i, op, op.Proc, s.Procs)
		}
		switch op.Kind {
		case OpSpawn:
			live[op.Proc] = true
		case OpFork:
			if !live[op.Proc] {
				t.Fatalf("op %d (%s): fork by dead proc", i, op)
			}
			live[op.NewProc] = true
		case OpExit:
			if !live[op.Proc] {
				t.Fatalf("op %d (%s): exit of dead proc", i, op)
			}
			live[op.Proc] = false
		case OpMmap:
			if !live[op.Proc] {
				t.Fatalf("op %d (%s): mmap by dead proc", i, op)
			}
			mapped[op.Region] = true
		case OpLoad, OpStore, OpStoreNT, OpMunmap:
			if !live[op.Proc] {
				t.Fatalf("op %d (%s): access by dead proc", i, op)
			}
			if !mapped[op.Region] {
				t.Fatalf("op %d (%s): access to unmapped region", i, op)
			}
			if op.Kind == OpLoad || op.Kind == OpStore {
				start := op.Off & (mem.LineBytes - 1)
				if start+uint64(op.Size) > mem.LineBytes {
					t.Fatalf("op %d (%s): crosses a line", i, op)
				}
			}
			if op.Kind == OpStoreNT && op.Off&(mem.LineBytes-1) != 0 {
				t.Fatalf("op %d (%s): NT store must be line aligned", i, op)
			}
		}
	}
}

func TestCatalogueWellFormed(t *testing.T) {
	for _, spec := range Catalogue() {
		for _, huge := range []bool{false, true} {
			s := spec.Build(huge, 1)
			if s.Name == "" || len(s.Ops) == 0 {
				t.Fatalf("%s: empty script", spec.Name)
			}
			validate(t, s)
		}
	}
}

func TestCatalogueHasMeasurementWindow(t *testing.T) {
	for _, spec := range Catalogue() {
		s := spec.Build(false, 1)
		begins, ends := 0, 0
		for _, op := range s.Ops {
			switch op.Kind {
			case OpBeginMeasure:
				begins++
			case OpEndMeasure:
				ends++
			}
		}
		if begins != 1 || ends != 1 {
			t.Fatalf("%s: begins=%d ends=%d, want 1/1", spec.Name, begins, ends)
		}
	}
}

func TestForkbenchShape(t *testing.T) {
	p := ForkbenchParams{RegionBytes: 8 * mem.PageBytes, BytesPerUnit: 4}
	s := Forkbench(p)
	validate(t, s)
	var initStores, childStores int
	inMeasure := false
	for _, op := range s.Ops {
		switch op.Kind {
		case OpBeginMeasure:
			inMeasure = true
		case OpEndMeasure:
			inMeasure = false
		case OpStore:
			if inMeasure {
				childStores++
			} else {
				initStores++
			}
		}
	}
	if initStores != 8*mem.LinesPerPage {
		t.Fatalf("init stores = %d, want %d", initStores, 8*mem.LinesPerPage)
	}
	if childStores != 8*4 {
		t.Fatalf("child stores = %d, want %d (4 lines x 8 pages)", childStores, 8*4)
	}
}

func TestUpdateEvenConvention(t *testing.T) {
	// Paper Fig. 11: updating 64 bytes in a 4 KB page writes one byte in
	// each of the 64 cachelines.
	b := NewBuilder("probe")
	b.Spawn(0).Mmap(0, 0, mem.PageBytes, false)
	updateEven(b, 0, 0, mem.PageBytes, false, 64, 1)
	s := b.Script()
	lines := make(map[uint64]bool)
	for _, op := range s.Ops {
		if op.Kind == OpStore {
			if op.Size != 1 {
				t.Fatalf("store size = %d, want 1", op.Size)
			}
			lines[op.Off>>6] = true
		}
	}
	if len(lines) != 64 {
		t.Fatalf("touched %d lines, want 64", len(lines))
	}

	// Whole-page update: all 64 lines touched, each with a sub-line store
	// (scattered application writes, not memset: write allocation and the
	// CoW redirect must fire).
	b2 := NewBuilder("probe2")
	b2.Spawn(0).Mmap(0, 0, mem.PageBytes, false)
	updateEven(b2, 0, 0, mem.PageBytes, false, mem.PageBytes, 1)
	n := 0
	for _, op := range b2.Script().Ops {
		if op.Kind == OpStore {
			if op.Size >= mem.LineBytes {
				t.Fatalf("whole-page store size = %d, must stay sub-line", op.Size)
			}
			n++
		}
	}
	if n != 64 {
		t.Fatalf("whole-page stores = %d", n)
	}

	// One byte: a single line touched.
	b3 := NewBuilder("probe3")
	b3.Spawn(0).Mmap(0, 0, mem.PageBytes, false)
	updateEven(b3, 0, 0, mem.PageBytes, false, 1, 1)
	n = 0
	for _, op := range b3.Script().Ops {
		if op.Kind == OpStore {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("1-byte update stores = %d", n)
	}
}

func TestSeedsChangeScripts(t *testing.T) {
	a := Redis(false, 1)
	b := Redis(false, 2)
	c := Redis(false, 1)
	if len(a.Ops) != len(c.Ops) {
		t.Fatal("same seed must give the same script")
	}
	same := true
	for i := range a.Ops {
		if a.Ops[i].String() != c.Ops[i].String() {
			same = false
		}
	}
	if !same {
		t.Fatal("same seed produced different ops")
	}
	diff := len(a.Ops) != len(b.Ops)
	if !diff {
		for i := range a.Ops {
			if a.Ops[i].String() != b.Ops[i].String() {
				diff = true
				break
			}
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical scripts")
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("redis"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestOpStrings(t *testing.T) {
	ops := []Op{
		{Kind: OpSpawn}, {Kind: OpMmap}, {Kind: OpLoad}, {Kind: OpStore},
		{Kind: OpStoreNT}, {Kind: OpFork}, {Kind: OpExit}, {Kind: OpMunmap},
		{Kind: OpKSM}, {Kind: OpBeginMeasure}, {Kind: OpEndMeasure}, {Kind: Kind(99)},
	}
	for _, op := range ops {
		if op.String() == "" {
			t.Fatalf("empty string for kind %d", op.Kind)
		}
	}
}

func TestUseCasesWellFormed(t *testing.T) {
	specs := append(UseCases(), Spec{"journal", "", Journal})
	for _, spec := range specs {
		for _, huge := range []bool{false, true} {
			s := spec.Build(huge, 1)
			validate(t, s)
			begins, ends := 0, 0
			for _, op := range s.Ops {
				switch op.Kind {
				case OpBeginMeasure:
					begins++
				case OpEndMeasure:
					ends++
				}
			}
			if begins != 1 || ends != 1 {
				t.Fatalf("%s huge=%v: begins=%d ends=%d", spec.Name, huge, begins, ends)
			}
		}
	}
}

func TestSnapshotMeasuresApp(t *testing.T) {
	s := Snapshot(false, 1)
	if s.MeasureProc != 0 {
		t.Fatalf("snapshot must measure the app process, got %d", s.MeasureProc)
	}
}

func TestJournalIsNTStoreHeavy(t *testing.T) {
	s := Journal(false, 1)
	nt, other := 0, 0
	inWindow := false
	for _, op := range s.Ops {
		switch op.Kind {
		case OpBeginMeasure:
			inWindow = true
		case OpEndMeasure:
			inWindow = false
		case OpStoreNT:
			if inWindow {
				nt++
			}
		case OpStore, OpLoad:
			if inWindow {
				other++
			}
		}
	}
	if nt == 0 || other != 0 {
		t.Fatalf("journal window must be pure NT stores: nt=%d other=%d", nt, other)
	}
}

func TestVMCloneSkipsKSMOnHuge(t *testing.T) {
	for _, huge := range []bool{false, true} {
		s := VMClone(huge, 1)
		hasKSM := false
		for _, op := range s.Ops {
			if op.Kind == OpKSM {
				hasKSM = true
			}
		}
		if hasKSM == huge {
			t.Fatalf("huge=%v: KSM presence=%v (KSM only merges 4KB pages)", huge, hasKSM)
		}
	}
}

// TestOpLayout pins the compact script layout: 56 bytes per op, and Procs
// as the only field the garbage collector has to scan.
func TestOpLayout(t *testing.T) {
	if n := unsafe.Sizeof(Op{}); n > 56 {
		t.Fatalf("sizeof(Op) = %d, want <= 56", n)
	}
	ty := reflect.TypeOf(Op{})
	for i := 0; i < ty.NumField(); i++ {
		f := ty.Field(i)
		if hasPointers(f.Type) != (f.Name == "Procs") {
			t.Errorf("field %s (%s): pointer-bearing = %v", f.Name, f.Type, hasPointers(f.Type))
		}
	}
}

func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Chan, reflect.Func,
		reflect.Interface, reflect.String, reflect.UnsafePointer:
		return true
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

// TestBuilderCountsUntruncatedSlots: a slot beyond Op's uint16 range is
// narrowed in the op, but the script's slot counts keep the real number so
// the simulator can refuse the script instead of aliasing slots.
func TestBuilderCountsUntruncatedSlots(t *testing.T) {
	b := NewBuilder("wide")
	b.Spawn(0).Fork(0, MaxSlots).Mmap(0, MaxSlots+4, 4096, false)
	s := b.Script()
	if s.Procs != MaxSlots+1 || s.Regions != MaxSlots+5 {
		t.Fatalf("procs=%d regions=%d, want %d and %d", s.Procs, s.Regions, MaxSlots+1, MaxSlots+5)
	}
}

// TestBuilderRecordsUnrepresentableArgs: a slot or size an Op field cannot
// hold is recorded, with its op index, in the script's Err (the first one
// wins) instead of being silently truncated.
func TestBuilderRecordsUnrepresentableArgs(t *testing.T) {
	cases := []struct {
		name  string
		build func(b *Builder)
		want  string
	}{
		{"size wraps to zero", func(b *Builder) { b.Load(0, 0, 0, 1<<32) }, "size 4294967296"},
		{"size wraps negative", func(b *Builder) { b.Store(0, 0, 0, 1<<31, 1) }, "size 2147483648"},
		{"negative size", func(b *Builder) { b.Load(0, 0, 0, -8) }, "size -8"},
		{"proc slot", func(b *Builder) { b.Exit(MaxSlots) }, "slot 65536"},
		{"negative proc slot", func(b *Builder) { b.Compute(-1, 5) }, "slot -1"},
		{"child slot", func(b *Builder) { b.Fork(0, MaxSlots) }, "slot 65536"},
		{"region slot", func(b *Builder) { b.Munmap(0, MaxSlots+4, 0, 4096) }, "slot 65540"},
		{"KSM slot", func(b *Builder) { b.KSM(0, 0, 0, -1) }, "slot -1"},
		{"first wins", func(b *Builder) { b.Load(0, 0, 0, 1<<40).Spawn(MaxSlots) }, "size 1099511627776"},
	}
	for _, c := range cases {
		b := NewBuilder(c.name).Spawn(0)
		c.build(b)
		err := b.Script().Err()
		if err == nil || !strings.Contains(err.Error(), "op 1: "+c.want) {
			t.Errorf("%s: Err = %v, want an op 1 error containing %q", c.name, err, c.want)
		}
	}
	top := MaxSlots - 1
	ok := NewBuilder("limits").Spawn(top).Store(top, top, 0, math.MaxInt32, 1).KSM(top, 0, 0, top).Script()
	if err := ok.Err(); err != nil {
		t.Fatalf("in-range script: %v", err)
	}
}

func TestSharedArgWord(t *testing.T) {
	s := NewBuilder("arg").Spawn(0).Mmap(0, 0, 1<<21, true).Compute(0, 777).Munmap(0, 0, 0, 4096).Script()
	for i, want := range []uint64{0, 1 << 21, 777, 4096} {
		if s.Ops[i].Arg != want {
			t.Errorf("op %d (%s): Arg = %d, want %d", i, s.Ops[i], s.Ops[i].Arg, want)
		}
	}
}
