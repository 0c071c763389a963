// Package trace serialises workload scripts so runs can be recorded,
// shared and replayed bit-exactly: a compact varint binary format (the
// native interchange format of cmd/lelantus-sim's -record/-replay flags),
// a JSON form for human editing, and a disassembler for inspection.
package trace

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"lelantus/internal/workload"
)

// magic identifies the binary format, versioned.
var magic = []byte("LELT1\n")

// maxOps bounds deserialised scripts.
const maxOps = 1 << 28

// initialOps caps the op capacity Read reserves from a header's count, so
// a corrupt length cannot trigger an allocation its input does not back.
const initialOps = 1 << 14

// wireOp is one op as the on-disk formats spell it: the field names, order
// and widths workload.Op had when LELT1 was defined. Every codec goes
// through it, so the formats stay byte-identical whatever workload.Op's
// in-memory layout is.
type wireOp struct {
	Kind    int
	Proc    int
	NewProc int
	Region  int
	Off     uint64
	Bytes   uint64
	Size    int
	Val     byte
	Huge    bool
	Ns      uint64
	Procs   []int
}

func toWire(op *workload.Op) wireOp {
	w := wireOp{
		Kind: int(op.Kind), Proc: int(op.Proc), NewProc: int(op.NewProc), Region: int(op.Region),
		Off: op.Off, Size: int(op.Size), Val: op.Val, Huge: op.Huge, Procs: op.Procs,
	}
	if op.Kind == workload.OpCompute {
		w.Ns = op.Arg
	} else {
		w.Bytes = op.Arg
	}
	return w
}

// op narrows the i-th wire op to a workload.Op, refusing any value the
// in-memory layout cannot hold instead of truncating it.
func (w *wireOp) op(i int) (workload.Op, error) {
	fail := func(format string, args ...any) (workload.Op, error) {
		return workload.Op{}, fmt.Errorf("trace: op %d: "+format, append([]any{i}, args...)...)
	}
	kind := workload.Kind(w.Kind)
	if int(kind) != w.Kind || !kind.Valid() {
		return fail("unknown kind %d", w.Kind)
	}
	for _, slot := range [...]int{w.Proc, w.NewProc, w.Region} {
		if err := workload.CheckSlot(slot); err != nil {
			return fail("%v", err)
		}
	}
	for _, slot := range w.Procs {
		if err := workload.CheckSlot(slot); err != nil {
			return fail("KSM %v", err)
		}
	}
	if err := workload.CheckSize(w.Size); err != nil {
		return fail("%v", err)
	}
	// Op keeps one argument word: a compute op's busy time, or any other
	// op's byte length.
	arg := w.Bytes
	switch {
	case kind == workload.OpCompute && w.Bytes != 0:
		return fail("compute op carries a byte length (%d)", w.Bytes)
	case kind == workload.OpCompute:
		arg = w.Ns
	case w.Ns != 0:
		return fail("kind %d carries a busy time (%d); only compute ops have one", w.Kind, w.Ns)
	}
	return workload.Op{
		Kind: kind, Proc: uint16(w.Proc), NewProc: uint16(w.NewProc), Region: uint16(w.Region),
		Off: w.Off, Arg: arg, Size: int32(w.Size), Val: w.Val, Huge: w.Huge, Procs: w.Procs,
	}, nil
}

// write appends w's LELT1 encoding; errors surface at bw.Flush.
func (w *wireOp) write(bw *bufio.Writer) {
	bw.WriteByte(byte(w.Kind))
	writeUvarint(bw, uint64(w.Proc))
	writeUvarint(bw, uint64(w.NewProc))
	writeUvarint(bw, uint64(w.Region))
	writeUvarint(bw, w.Off)
	writeUvarint(bw, w.Bytes)
	writeUvarint(bw, uint64(w.Size))
	bw.WriteByte(w.Val)
	if w.Huge {
		bw.WriteByte(1)
	} else {
		bw.WriteByte(0)
	}
	writeUvarint(bw, w.Ns)
	writeUvarint(bw, uint64(len(w.Procs)))
	for _, p := range w.Procs {
		writeUvarint(bw, uint64(p))
	}
}

// readWire decodes one op's LELT1 encoding.
func readWire(br *bufio.Reader) (wireOp, error) {
	var w wireOp
	kind, err := br.ReadByte()
	if err != nil {
		return w, err
	}
	w.Kind = int(kind)
	if w.Proc, err = readInt(br); err != nil {
		return w, err
	}
	if w.NewProc, err = readInt(br); err != nil {
		return w, err
	}
	if w.Region, err = readInt(br); err != nil {
		return w, err
	}
	if w.Off, err = binary.ReadUvarint(br); err != nil {
		return w, err
	}
	if w.Bytes, err = binary.ReadUvarint(br); err != nil {
		return w, err
	}
	if w.Size, err = readInt(br); err != nil {
		return w, err
	}
	if w.Val, err = br.ReadByte(); err != nil {
		return w, err
	}
	hb, err := br.ReadByte()
	if err != nil {
		return w, err
	}
	w.Huge = hb != 0
	if w.Ns, err = binary.ReadUvarint(br); err != nil {
		return w, err
	}
	nProcs, err := binary.ReadUvarint(br)
	if err != nil {
		return w, err
	}
	if nProcs > 1<<20 {
		return w, fmt.Errorf("absurd KSM proc count %d", nProcs)
	}
	if nProcs > 0 {
		w.Procs = make([]int, nProcs)
		for j := range w.Procs {
			if w.Procs[j], err = readInt(br); err != nil {
				return w, err
			}
		}
	}
	return w, nil
}

// Write serialises the script in the binary format. A script with a
// non-nil Err is refused: its ops hold truncated values.
func Write(w io.Writer, s workload.Script) error {
	if err := s.Err(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic); err != nil {
		return err
	}
	writeUvarint(bw, uint64(len(s.Name)))
	if _, err := bw.WriteString(s.Name); err != nil {
		return err
	}
	writeUvarint(bw, uint64(s.Procs))
	writeUvarint(bw, uint64(s.Regions))
	writeVarint(bw, int64(s.MeasureProc))
	writeUvarint(bw, uint64(len(s.Ops)))
	for i := range s.Ops {
		op := toWire(&s.Ops[i])
		op.write(bw)
	}
	return bw.Flush()
}

// Read deserialises a binary script.
func Read(r io.Reader) (workload.Script, error) {
	br := bufio.NewReader(r)
	var s workload.Script
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return s, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(head) != string(magic) {
		return s, fmt.Errorf("trace: bad magic %q", head)
	}
	nameLen, err := binary.ReadUvarint(br)
	if err != nil {
		return s, err
	}
	if nameLen > 1<<16 {
		return s, fmt.Errorf("trace: absurd name length %d", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return s, err
	}
	s.Name = string(name)
	if s.Procs, err = readInt(br); err != nil {
		return s, err
	}
	if s.Regions, err = readInt(br); err != nil {
		return s, err
	}
	mp, err := binary.ReadVarint(br)
	if err != nil {
		return s, err
	}
	s.MeasureProc = int(mp)
	nOps, err := binary.ReadUvarint(br)
	if err != nil {
		return s, err
	}
	if nOps > maxOps {
		return s, fmt.Errorf("trace: absurd op count %d", nOps)
	}
	// The header count is only a claim: reserve at most initialOps and
	// let append grow with the ops actually decoded.
	s.Ops = make([]workload.Op, 0, min(nOps, initialOps))
	for i := 0; i < int(nOps); i++ {
		w, err := readWire(br)
		if err != nil {
			return s, fmt.Errorf("trace: op %d: %w", i, err)
		}
		op, err := w.op(i)
		if err != nil {
			return s, err
		}
		s.Ops = append(s.Ops, op)
	}
	return s, nil
}

func writeUvarint(w *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n])
}

func writeVarint(w *bufio.Writer, v int64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutVarint(buf[:], v)
	w.Write(buf[:n])
}

func readInt(br *bufio.Reader) (int, error) {
	v, err := binary.ReadUvarint(br)
	return int(v), err
}

// jsonScript is the JSON wire form.
type jsonScript struct {
	Name        string   `json:"name"`
	Procs       int      `json:"procs"`
	Regions     int      `json:"regions"`
	MeasureProc int      `json:"measure_proc"`
	Ops         []wireOp `json:"ops"`
}

// WriteJSON serialises the script as indented JSON, refusing a script
// with a non-nil Err as Write does. It streams one op at a time, writing
// the same bytes a json.Encoder with a one-space indent writes for the
// whole jsonScript.
func WriteJSON(w io.Writer, s workload.Script) error {
	if err := s.Err(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	name, err := json.Marshal(s.Name)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "{\n \"name\": %s,\n \"procs\": %d,\n \"regions\": %d,\n \"measure_proc\": %d,\n \"ops\": ",
		name, s.Procs, s.Regions, s.MeasureProc)
	switch {
	case s.Ops == nil:
		bw.WriteString("null")
	case len(s.Ops) == 0:
		bw.WriteString("[]")
	default:
		bw.WriteString("[\n")
		for i := range s.Ops {
			op, err := json.MarshalIndent(toWire(&s.Ops[i]), "  ", " ")
			if err != nil {
				return err
			}
			bw.WriteString("  ")
			bw.Write(op)
			if i < len(s.Ops)-1 {
				bw.WriteByte(',')
			}
			bw.WriteByte('\n')
		}
		bw.WriteString(" ]")
	}
	bw.WriteString("\n}\n")
	return bw.Flush()
}

// ReadJSON deserialises a JSON script.
func ReadJSON(r io.Reader) (workload.Script, error) {
	var js jsonScript
	if err := json.NewDecoder(r).Decode(&js); err != nil {
		return workload.Script{}, err
	}
	s := workload.Script{
		Name: js.Name, Procs: js.Procs, Regions: js.Regions,
		MeasureProc: js.MeasureProc,
	}
	if js.Ops != nil {
		s.Ops = make([]workload.Op, len(js.Ops))
	}
	for i := range js.Ops {
		op, err := js.Ops[i].op(i)
		if err != nil {
			return workload.Script{}, err
		}
		s.Ops[i] = op
	}
	return s, nil
}

// Disassemble prints up to max ops (0 = all) in readable form.
func Disassemble(w io.Writer, s workload.Script, max int) {
	fmt.Fprintf(w, "script %q: %d ops, %d procs, %d regions", s.Name, len(s.Ops), s.Procs, s.Regions)
	if s.MeasureProc >= 0 {
		fmt.Fprintf(w, ", measures p%d", s.MeasureProc)
	}
	fmt.Fprintln(w)
	for i, op := range s.Ops {
		if max > 0 && i >= max {
			fmt.Fprintf(w, "... %d more ops\n", len(s.Ops)-i)
			return
		}
		fmt.Fprintf(w, "%8d  %s\n", i, op)
	}
}
