package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"lelantus/internal/workload"
)

// lelt1 encodes a LELT1 stream holding ops, with a header claiming nOps.
func lelt1(nOps uint64, ops ...wireOp) []byte {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	bw.Write(magic)
	writeUvarint(bw, 1)
	bw.WriteString("x")
	writeUvarint(bw, 1)
	writeUvarint(bw, 1)
	writeVarint(bw, -1)
	writeUvarint(bw, nOps)
	for i := range ops {
		ops[i].write(bw)
	}
	bw.Flush()
	return buf.Bytes()
}

func jsonOps(t *testing.T, ops ...wireOp) []byte {
	t.Helper()
	b, err := json.Marshal(jsonScript{Name: "x", Procs: 1, Regions: 1, MeasureProc: -1, Ops: ops})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDecodersRejectNarrowing: a value workload.Op cannot hold is an
// error naming the op, never a silent truncation. The bad op sits at
// index 1 behind a valid one.
func TestDecodersRejectNarrowing(t *testing.T) {
	load := wireOp{Kind: int(workload.OpLoad), Size: 8}
	cases := []struct {
		name string
		op   wireOp
		want string
	}{
		{"proc slot", wireOp{Kind: int(workload.OpSpawn), Proc: workload.MaxSlots}, "slot 65536"},
		{"child slot", wireOp{Kind: int(workload.OpFork), NewProc: 70000}, "slot 70000"},
		{"region slot", wireOp{Kind: int(workload.OpLoad), Region: workload.MaxSlots}, "slot 65536"},
		{"negative slot", wireOp{Kind: int(workload.OpExit), Proc: -1}, "slot -1"},
		{"KSM slot", wireOp{Kind: int(workload.OpKSM), Procs: []int{0, workload.MaxSlots}}, "KSM slot 65536"},
		{"negative size", wireOp{Kind: int(workload.OpLoad), Size: -8}, "size -8"},
		{"wide size", wireOp{Kind: int(workload.OpStore), Size: math.MaxInt32 + 1}, "size 2147483648"},
		{"unknown kind", wireOp{Kind: int(workload.OpEndMeasure) + 1}, "unknown kind 12"},
		{"kind past a byte", wireOp{Kind: 256 + int(workload.OpLoad)}, "unknown kind 258"},
		{"negative kind", wireOp{Kind: -1}, "unknown kind -1"},
		{"ns on a store", wireOp{Kind: int(workload.OpStore), Ns: 5}, "busy time (5)"},
		{"bytes on compute", wireOp{Kind: int(workload.OpCompute), Bytes: 4096, Ns: 5}, "byte length (4096)"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			decoders := map[string]func() error{
				"json": func() error {
					_, err := ReadJSON(bytes.NewReader(jsonOps(t, load, c.op)))
					return err
				},
			}
			// The binary format stores the kind in one byte and every other
			// field unsigned, so only some cases are expressible in it.
			if c.op.Kind >= 0 && c.op.Kind < 256 {
				decoders["lelt1"] = func() error {
					_, err := Read(bytes.NewReader(lelt1(2, load, c.op)))
					return err
				}
			}
			for name, decode := range decoders {
				err := decode()
				if err == nil || !strings.Contains(err.Error(), "op 1:") || !strings.Contains(err.Error(), c.want) {
					t.Errorf("%s: got %v, want an op 1 error containing %q", name, err, c.want)
				}
			}
		})
	}
}

func TestDecodersAcceptLimits(t *testing.T) {
	top := workload.MaxSlots - 1
	ops := []wireOp{
		{Kind: int(workload.OpFork), Proc: top, NewProc: top},
		{Kind: int(workload.OpStore), Region: top, Size: math.MaxInt32},
		{Kind: int(workload.OpKSM), Procs: []int{top, 0}},
		{Kind: int(workload.OpCompute), Ns: math.MaxUint64},
		{Kind: int(workload.OpMunmap), Bytes: math.MaxUint64},
	}
	bin, err := Read(bytes.NewReader(lelt1(uint64(len(ops)), ops...)))
	if err != nil {
		t.Fatal(err)
	}
	js, err := ReadJSON(bytes.NewReader(jsonOps(t, ops...)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range ops {
		if got := toWire(&bin.Ops[i]); !reflect.DeepEqual(got, ops[i]) {
			t.Errorf("lelt1 op %d: %+v, want %+v", i, got, ops[i])
		}
		if got := toWire(&js.Ops[i]); !reflect.DeepEqual(got, ops[i]) {
			t.Errorf("json op %d: %+v, want %+v", i, got, ops[i])
		}
	}
}

func TestParseTextRejectsNarrowing(t *testing.T) {
	cases := map[string]string{
		"spawn 65536":              "slot 65536",
		"fork 0 65536":             "slot 65536",
		"mmap 0 70000 4096":        "slot 70000",
		"load 0 0 0 2147483648":    "size 2147483648",
		"store 0 65536 0 8 1":      "slot 65536",
		"storent 0 65536 0 1":      "slot 65536",
		"compute 65536 5":          "slot 65536",
		"ksm 0 0 0 65536":          "slot 65536",
		"munmap 65536 0 0 4096":    "slot 65536",
		"exit 0x10000":             "slot 65536",
		"store 0 0 0 0x80000000 1": "size 2147483648",
	}
	for line, want := range cases {
		_, err := ParseText(strings.NewReader("spawn 0\n" + line + "\n"))
		if err == nil || !strings.Contains(err.Error(), "op 1:") || !strings.Contains(err.Error(), want) {
			t.Errorf("%q: got %v, want an op 1 error containing %q", line, err, want)
		}
	}
	if _, err := ParseText(strings.NewReader("spawn 65535\nexit 65535\n")); err != nil {
		t.Fatalf("slot 65535 rejected: %v", err)
	}
}

// TestReadCorruptCountDoesNotAllocate: a header claiming maxOps ops with
// no ops behind it must fail without reserving memory for the claim.
func TestReadCorruptCountDoesNotAllocate(t *testing.T) {
	data := lelt1(maxOps)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Read(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated script accepted")
	}
	if d := after.TotalAlloc - before.TotalAlloc; d > 4<<20 {
		t.Fatalf("Read allocated %d bytes for an empty op stream", d)
	}
}

// TestWriteJSONMatchesEncoder: the streaming WriteJSON writes the bytes a
// json.Encoder writes for the whole jsonScript, including the nil and
// empty op lists and names that need escaping.
func TestWriteJSONMatchesEncoder(t *testing.T) {
	ksm := workload.NewBuilder(`a "quoted" <name> & more`).
		Spawn(0).Fork(0, 1).Mmap(0, 0, 8192, true).Compute(1, 9).KSM(0, 4096, 0, 1).Script()
	scripts := []workload.Script{
		{Name: "nil ops", MeasureProc: -1},
		{Name: "empty ops", Ops: []workload.Op{}, MeasureProc: 2},
		ksm,
	}
	for _, s := range scripts {
		var got, want bytes.Buffer
		if err := WriteJSON(&got, s); err != nil {
			t.Fatal(err)
		}
		js := jsonScript{Name: s.Name, Procs: s.Procs, Regions: s.Regions, MeasureProc: s.MeasureProc}
		if s.Ops != nil {
			js.Ops = make([]wireOp, len(s.Ops))
			for i := range s.Ops {
				js.Ops[i] = toWire(&s.Ops[i])
			}
		}
		enc := json.NewEncoder(&want)
		enc.SetIndent("", " ")
		if err := enc.Encode(js); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Errorf("%s:\ngot  %q\nwant %q", s.Name, got.String(), want.String())
		}
	}
}

// TestEncodersRefuseBuilderErrors: a script whose Builder had to narrow an
// argument holds truncated ops, so neither encoder records it.
func TestEncodersRefuseBuilderErrors(t *testing.T) {
	s := workload.NewBuilder("wide").Spawn(0).Load(0, 0, 0, 1<<32).Script()
	for name, enc := range map[string]func(*bytes.Buffer, workload.Script) error{
		"lelt1": func(b *bytes.Buffer, s workload.Script) error { return Write(b, s) },
		"json":  func(b *bytes.Buffer, s workload.Script) error { return WriteJSON(b, s) },
	} {
		var buf bytes.Buffer
		if err := enc(&buf, s); err == nil || !strings.Contains(err.Error(), "op 1: size 4294967296") {
			t.Errorf("%s: got %v, want the op 1 size error", name, err)
		}
	}
}
