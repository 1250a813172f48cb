package trace

import (
	"bytes"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/memmodel"
	"repro/internal/memsys"
)

// refDecode decodes a text stream as the grammar comment at the top of
// text.go defines it, with the ceilings the formats share on names and
// int-typed fields, written with strings.Fields, strings.Cut and strconv
// and sharing no parsing code with the decoder. It returns the traces
// read before the first error and the line that error is on, 0 when
// there is none. The count ceilings and the line rule, which inputs of
// fuzzing size never reach, are left out.
func refDecode(in string) (traces []*Trace, errLine int) {
	lines := strings.Split(in, "\n")
	if lines[len(lines)-1] == "" {
		lines = lines[:len(lines)-1] // the last line's '\n'
	}
	intField := func(s string) (int32, bool) {
		v, err := strconv.Atoi(s)
		return int32(v), err == nil && v >= 0 && v < maxIntField
	}
	ref := func(s string) (r Ref, ok bool) {
		tid, rest, colon := strings.Cut(s, ":")
		instr, sub, dotted := strings.Cut(rest, ".")
		r.TID, ok = intField(tid)
		if ok {
			r.Instr, ok = intField(instr)
		}
		if ok && dotted {
			r.Sub, ok = intField(sub)
		}
		return r, colon && ok
	}
	number := func(s string) (uint64, bool) {
		v, err := strconv.ParseUint(s, 0, 64)
		return v, err == nil
	}
	var (
		header bool
		t      *Trace // the open trace
		ops    []Op   // the open thread's
	)
	closeThread := func() {
		if n := len(t.Threads); n > 0 && len(ops) > 0 {
			t.Threads[n-1].Ops = ops
		}
		ops = nil
	}
	for i, line := range lines {
		text, _, _ := strings.Cut(line, "#")
		f := strings.Fields(text)
		if len(f) == 0 {
			continue
		}
		fail := func() ([]*Trace, int) { return traces, i + 1 }
		if !header {
			if len(f) != 2 || f[0] != "mctrace" {
				return fail()
			}
			if v, err := strconv.Atoi(f[1]); err != nil || v != FormatVersion {
				return fail()
			}
			header = true
			continue
		}
		if t == nil {
			switch f[0] {
			case "trace":
				if len(f) > 2 || len(f) == 2 && len(f[1]) > maxNameLen {
					return fail()
				}
				t = &Trace{}
				if len(f) == 2 {
					t.Name = f[1]
				}
				continue
			case "thread":
				t = &Trace{} // a trace may start at its first thread
			default:
				return fail()
			}
		}
		args := f[1:]
		switch f[0] {
		case "end":
			if len(args) != 0 {
				return fail()
			}
			closeThread()
			traces, t = append(traces, t), nil
		case "thread":
			if len(args) != 1 {
				return fail()
			}
			tid, err := strconv.Atoi(args[0])
			if err != nil || tid < 0 || tid >= maxIntField {
				return fail()
			}
			closeThread()
			t.Threads = append(t.Threads, Thread{TID: int32(tid)})
		case "r", "w", "f", "u":
			var op Op
			if len(t.Threads) == 0 {
				return fail()
			}
			if n := len(args); n > 0 && strings.HasPrefix(args[n-1], "@") {
				instr, sub, dotted := strings.Cut(args[n-1][1:], ".")
				var ok bool
				if op.Instr, ok = intField(instr); !ok {
					return fail()
				}
				if dotted {
					if op.Sub, ok = intField(sub); !ok {
						return fail()
					}
				}
				op.Keyed, args = true, args[:n-1]
			}
			var ok1, ok2, ok3 bool
			var addr uint64
			switch f[0] {
			case "r", "w":
				op.Kind = OpRead
				if f[0] == "w" {
					op.Kind = OpWrite
				}
				if len(args) == 3 && args[2] == "a" {
					op.Atomic, args = true, args[:2]
				}
				if len(args) != 2 {
					return fail()
				}
				addr, ok1 = number(args[0])
				op.Value, ok2 = number(args[1])
				ok3 = true
			case "f":
				if len(args) != 1 {
					return fail()
				}
				op.Kind = OpFence
				op.Fence, ok1 = refFences[args[0]]
				ok2, ok3 = true, true
			case "u":
				if len(args) != 3 || op.Sub != 0 {
					return fail()
				}
				op.Kind = OpRMW
				addr, ok1 = number(args[0])
				op.Value, ok2 = number(args[1])
				op.Value2, ok3 = number(args[2])
			}
			if !ok1 || !ok2 || !ok3 {
				return fail()
			}
			op.Addr = memsys.Addr(addr)
			ops = append(ops, op)
		case "rf":
			if len(args) != 2 {
				return fail()
			}
			var e RFEdge
			var ok bool
			if e.Read, ok = ref(args[0]); !ok {
				return fail()
			}
			if e.Init = args[1] == "init"; !e.Init {
				if e.Write, ok = ref(args[1]); !ok {
					return fail()
				}
			}
			t.RF = append(t.RF, e)
		case "co":
			if len(args) < 2 {
				return fail()
			}
			addr, ok := number(args[0])
			if !ok {
				return fail()
			}
			c := COOrder{Addr: memsys.Addr(addr)}
			for _, a := range args[1:] {
				w, ok := ref(a)
				if !ok {
					return fail()
				}
				c.Writes = append(c.Writes, w)
			}
			t.CO = append(t.CO, c)
		default: // "trace" inside a trace, or an unknown directive
			return fail()
		}
	}
	if t != nil {
		return traces, len(lines) // the stream ends inside a trace
	}
	return traces, 0
}

// refFences names the fence kinds as the grammar comment spells them.
var refFences = map[string]memmodel.FenceKind{"full": memmodel.FenceFull, "ss": memmodel.FenceSS, "ll": memmodel.FenceLL}

// errLine is the line number a decoder error names, 0 for none.
func errLine(err error) int {
	if err == nil {
		return 0
	}
	m := regexp.MustCompile(`^trace: line (\d+): `).FindStringSubmatch(err.Error())
	if m == nil {
		return -1
	}
	n, _ := strconv.Atoi(m[1])
	return n
}

// FuzzTextDecoderReference: the decoder and refDecode, which share no
// parsing code, read every input alike: the same traces, deep-equal,
// and, when the stream is bad, an error on the same line.
func FuzzTextDecoderReference(f *testing.F) {
	for _, in := range textDecoderSeeds(f) {
		f.Add(in)
	}
	for _, c := range textEdgeCases {
		f.Add(c.in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		got, err := readAll(NewTextReader(bytes.NewReader([]byte(in))))
		want, wantLine := refDecode(in)
		if line := errLine(err); line != wantLine {
			t.Fatalf("decoder error %v (line %d), reference fails on line %d\nin: %q", err, line, wantLine, in)
		}
		if len(got) != len(want) || len(got) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("decoder read %d traces, reference %d, or they differ\nin: %q", len(got), len(want), in)
		}
	})
}
