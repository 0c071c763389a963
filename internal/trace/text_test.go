package trace

import (
	"strings"
	"testing"

	"lelantus/internal/workload"
)

const sampleText = `
# a hand-written trace
name demo
measure-proc 0
spawn 0
mmap 0 0 0x100000 huge
store 0 0 0x40 8 0xab
load 0 0 0x80 16
storent 0 0 0xc0 0x11
fork 0 1
compute 1 1000
begin
store 1 0 0 4 7
end
munmap 0 0 0 4096
exit 1
exit 0
`

func TestParseText(t *testing.T) {
	s, err := ParseText(strings.NewReader(sampleText))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "demo" || s.MeasureProc != 0 {
		t.Fatalf("header: %q mp=%d", s.Name, s.MeasureProc)
	}
	if s.Procs != 2 || s.Regions != 1 {
		t.Fatalf("slots: procs=%d regions=%d", s.Procs, s.Regions)
	}
	kinds := []workload.Kind{
		workload.OpSpawn, workload.OpMmap, workload.OpStore, workload.OpLoad,
		workload.OpStoreNT, workload.OpFork, workload.OpCompute,
		workload.OpBeginMeasure, workload.OpStore, workload.OpEndMeasure,
		workload.OpMunmap, workload.OpExit, workload.OpExit,
	}
	if len(s.Ops) != len(kinds) {
		t.Fatalf("ops = %d, want %d", len(s.Ops), len(kinds))
	}
	for i, k := range kinds {
		if s.Ops[i].Kind != k {
			t.Fatalf("op %d kind = %v, want %v", i, s.Ops[i].Kind, k)
		}
	}
	if s.Ops[1].Arg != 0x100000 || !s.Ops[1].Huge {
		t.Fatalf("mmap decoded wrong: %+v", s.Ops[1])
	}
	if s.Ops[2].Val != 0xAB || s.Ops[2].Size != 8 || s.Ops[2].Off != 0x40 {
		t.Fatalf("store decoded wrong: %+v", s.Ops[2])
	}
	if s.Ops[6].Arg != 1000 {
		t.Fatalf("compute decoded wrong: %+v", s.Ops[6])
	}
}

func TestParseTextKSM(t *testing.T) {
	s, err := ParseText(strings.NewReader("spawn 0\nspawn 1\nksm 0 0x1000 0 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	op := s.Ops[2]
	if op.Kind != workload.OpKSM || len(op.Procs) != 2 || op.Off != 0x1000 {
		t.Fatalf("ksm decoded wrong: %+v", op)
	}
}

func TestParseTextErrors(t *testing.T) {
	bad := []string{
		"bogus 1 2",
		"mmap 0",
		"store 0 0 0",
		"fork 0",
		"spawn x",
		"name",
		"ksm 0 0 1",
	}
	for _, line := range bad {
		if _, err := ParseText(strings.NewReader(line)); err == nil {
			t.Fatalf("accepted %q", line)
		}
	}
}

// TestParseTextRunnable feeds a parsed text trace through the binary
// encoder: the formats must compose.
func TestParseTextRoundTripBinary(t *testing.T) {
	s, err := ParseText(strings.NewReader(sampleText))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	Disassemble(&sb, s, 0)
	if !strings.Contains(sb.String(), "fork p0 -> p1") {
		t.Fatalf("disassembly missing fork:\n%s", sb.String())
	}
}
