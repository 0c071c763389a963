package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"lelantus/internal/workload"
)

// ParseText reads a hand-writable line-oriented trace. Blank lines and
// lines starting with '#' are ignored. Numeric fields accept decimal or
// 0x-prefixed hex. Grammar (one op per line):
//
//	name <string>                  script name (optional)
//	measure-proc <p>               report process p's time (optional)
//	spawn <p>
//	mmap <p> <r> <bytes> [huge]
//	load <p> <r> <off> <size>
//	store <p> <r> <off> <size> <val>
//	storent <p> <r> <off> <val>
//	fork <p> <child>
//	compute <p> <ns>
//	ksm <r> <off> <p> <p> [p...]
//	munmap <p> <r> <off> <bytes>
//	begin | end                    measurement window
//	exit <p>
func ParseText(r io.Reader) (workload.Script, error) {
	b := workload.NewBuilder("text-trace")
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	lineNo := 0
	measureProc := -1
	name := ""
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		fail := func(msg string) (workload.Script, error) {
			return workload.Script{}, fmt.Errorf("trace: line %d: %s: %q", lineNo, msg, line)
		}
		num := func(i int) (uint64, error) {
			if i >= len(f) {
				return 0, fmt.Errorf("missing field %d", i)
			}
			return strconv.ParseUint(strings.TrimPrefix(f[i], "0x"), base(f[i]), 64)
		}
		argErr := func(err error) (workload.Script, error) {
			return workload.Script{}, fmt.Errorf("trace: line %d: %v: %q", lineNo, err, line)
		}
		switch f[0] {
		case "name":
			if len(f) < 2 {
				return fail("name needs a value")
			}
			name = f[1]
		case "measure-proc":
			v, err := num(1)
			if err != nil {
				return argErr(err)
			}
			measureProc = int(v)
		case "spawn":
			p, err := num(1)
			if err != nil {
				return argErr(err)
			}
			b.Spawn(int(p))
		case "mmap":
			p, err1 := num(1)
			reg, err2 := num(2)
			bytes, err3 := num(3)
			if err1 != nil || err2 != nil || err3 != nil {
				return fail("mmap <p> <r> <bytes> [huge]")
			}
			huge := len(f) > 4 && f[4] == "huge"
			b.Mmap(int(p), int(reg), bytes, huge)
		case "load":
			p, err1 := num(1)
			reg, err2 := num(2)
			off, err3 := num(3)
			size, err4 := num(4)
			if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
				return fail("load <p> <r> <off> <size>")
			}
			b.Load(int(p), int(reg), off, int(size))
		case "store":
			p, err1 := num(1)
			reg, err2 := num(2)
			off, err3 := num(3)
			size, err4 := num(4)
			val, err5 := num(5)
			if err1 != nil || err2 != nil || err3 != nil || err4 != nil || err5 != nil {
				return fail("store <p> <r> <off> <size> <val>")
			}
			b.Store(int(p), int(reg), off, int(size), byte(val))
		case "storent":
			p, err1 := num(1)
			reg, err2 := num(2)
			off, err3 := num(3)
			val, err4 := num(4)
			if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
				return fail("storent <p> <r> <off> <val>")
			}
			b.StoreNT(int(p), int(reg), off, byte(val))
		case "fork":
			p, err1 := num(1)
			c, err2 := num(2)
			if err1 != nil || err2 != nil {
				return fail("fork <p> <child>")
			}
			b.Fork(int(p), int(c))
		case "compute":
			p, err1 := num(1)
			ns, err2 := num(2)
			if err1 != nil || err2 != nil {
				return fail("compute <p> <ns>")
			}
			b.Compute(int(p), ns)
		case "ksm":
			reg, err1 := num(1)
			off, err2 := num(2)
			if err1 != nil || err2 != nil || len(f) < 5 {
				return fail("ksm <r> <off> <p> <p> [p...]")
			}
			procs := make([]int, 0, len(f)-3)
			for i := 3; i < len(f); i++ {
				v, err := num(i)
				if err != nil {
					return argErr(err)
				}
				procs = append(procs, int(v))
			}
			b.KSM(int(reg), off, procs...)
		case "munmap":
			p, err1 := num(1)
			reg, err2 := num(2)
			off, err3 := num(3)
			bytes, err4 := num(4)
			if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
				return fail("munmap <p> <r> <off> <bytes>")
			}
			b.Munmap(int(p), int(reg), off, bytes)
		case "begin":
			b.BeginMeasure()
		case "end":
			b.EndMeasure()
		case "exit":
			p, err := num(1)
			if err != nil {
				return argErr(err)
			}
			b.Exit(int(p))
		default:
			return fail("unknown op")
		}
		// The Builder refuses any slot or size an Op field cannot hold.
		if err := b.Err(); err != nil {
			return argErr(err)
		}
	}
	if err := sc.Err(); err != nil {
		return workload.Script{}, err
	}
	s := b.Script()
	if name != "" {
		s.Name = name
	}
	if measureProc >= 0 {
		s.MeasureProc = measureProc
	}
	return s, nil
}

func base(tok string) int {
	if strings.HasPrefix(tok, "0x") {
		return 16
	}
	return 10
}
