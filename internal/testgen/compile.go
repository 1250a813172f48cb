package testgen

import (
	"fmt"

	"repro/internal/memsys"
)

// Instr is one compiled instruction of a thread's program, the executable
// representation of an Op in the simulated target (§3.3: "each operation
// ... maps to an executable representation in the target ISA").
type Instr struct {
	// Kind is the operation class.
	Kind OpKind
	// Addr is the (static) word address for memory operations. For
	// OpReadAddrDp the effective address is still Addr, but issue is
	// delayed until the producing load's value is available — the
	// dependency is a timing dependency, matching the paper's use of
	// address dependencies to constrain ordering rather than to
	// compute novel addresses.
	Addr memsys.Addr
	// WriteID is the unique nonzero value written by OpWrite/OpRMW
	// instructions (§4.1: "each write event is assigned a unique ID –
	// the value to be written by the associated instruction").
	WriteID uint64
	// DepLoad is the program index of the load producing the address
	// dependency for OpReadAddrDp, or -1.
	DepLoad int
	// Delay is the NOP count for OpDelay.
	Delay int
	// Fence is the fence flavour for OpFence.
	Fence FenceKind
	// NodeIndex is the position of the originating gene in the flat
	// test, for mapping dynamic events back to genes.
	NodeIndex int
}

// IsLoad reports whether the instruction produces a load value usable as
// a dependency source.
func (i *Instr) IsLoad() bool {
	return i.Kind == OpRead || i.Kind == OpReadAddrDp || i.Kind == OpRMW
}

// Program is the compiled instruction sequence of one thread.
type Program []Instr

// WriteIDFor constructs the unique value written by instruction instr of
// thread tid. IDs are dense per thread, never zero (zero is the initial
// value), and embed the thread so the checker can map a read value back
// to its producing write event.
func WriteIDFor(tid, instr int) uint64 {
	return uint64(tid+1)<<32 | uint64(instr+1)
}

// DecodeWriteID recovers (tid, instr) from a write ID produced by
// WriteIDFor. ok is false for zero or malformed values.
func DecodeWriteID(v uint64) (tid, instr int, ok bool) {
	if v == 0 {
		return 0, 0, false
	}
	tid = int(v>>32) - 1
	instr = int(v&0xffffffff) - 1
	if tid < 0 || instr < 0 {
		return 0, 0, false
	}
	return tid, instr, true
}

// Compile lowers the flat test into per-thread programs. The result has
// Threads entries; threads with no genes get empty programs.
func Compile(t *Test) ([]Program, error) { return CompileInto(nil, t) }

// CompileInto is Compile into storage the caller owns: dst's programs
// are overwritten in place and grown as needed, so a caller that
// compiles one test after another (the host, once per test-run) settles
// at the largest program it has seen. The result aliases dst; nothing of
// an earlier result may still be in use.
func CompileInto(dst []Program, t *Test) ([]Program, error) {
	if t.Threads <= 0 {
		return nil, fmt.Errorf("testgen: test has no threads")
	}
	dst = dst[:cap(dst)]
	progs := dst[:0]
	for tid := 0; tid < t.Threads; tid++ {
		var p Program
		if tid < len(dst) {
			p = dst[tid][:0]
		}
		progs = append(progs, p)
	}
	for nodeIdx, n := range t.Nodes {
		if n.PID < 0 || n.PID >= t.Threads {
			return nil, fmt.Errorf("testgen: node %d has pid %d out of range [0,%d)", nodeIdx, n.PID, t.Threads)
		}
		tid := n.PID
		idx := len(progs[tid])
		in := Instr{
			Kind:      n.Op.Kind,
			Addr:      n.Op.Addr,
			DepLoad:   -1,
			Delay:     n.Op.Delay,
			Fence:     n.Op.Fence,
			NodeIndex: nodeIdx,
		}
		switch n.Op.Kind {
		case OpWrite, OpRMW:
			in.WriteID = WriteIDFor(tid, idx)
		case OpReadAddrDp:
			// The dependency's source is the thread's latest load. With
			// none yet, degrade to a plain read — which is then a load
			// itself, so the scan is short from here on.
			in.DepLoad = lastLoad(progs[tid])
			if in.DepLoad < 0 {
				in.Kind = OpRead
			}
		}
		progs[tid] = append(progs[tid], in)
	}
	return progs, nil
}

// lastLoad returns the index of p's last load, or -1.
func lastLoad(p Program) int {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i].IsLoad() {
			return i
		}
	}
	return -1
}
