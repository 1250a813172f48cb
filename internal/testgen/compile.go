package testgen

import (
	"fmt"
	"math/bits"

	"repro/internal/memsys"
)

// Instr is one compiled instruction of a thread's program, the executable
// representation of an Op in the simulated target (§3.3: "each operation
// ... maps to an executable representation in the target ISA"). Fields
// are laid out widest first: the core walks programs on every event.
type Instr struct {
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
	// NodeIndex is the position of the originating gene in the flat
	// test, for mapping dynamic events back to genes.
	NodeIndex int

	// The links tie the instruction to others of its program, so the core
	// looks up what it would otherwise scan its window for. A Linker sets
	// them — the core, the first time it loads a program — and linked
	// says they are set, since every zero link means something.
	//
	// snoop is a plain load's line, noSnoop for any other instruction.
	snoop memsys.Addr
	// prevWord is the previous access (load or store) to the same word and
	// fwd the youngest older store (Write or RMW) to it, both as an index
	// plus one (0 for none).
	prevWord, fwd int32
	// nextLoad is the first plain load and nextStop the first load
	// barrier (see NextLoadBarrier) at or after the instruction, len(p)
	// for none.
	nextLoad, nextStop int32

	// Kind is the operation class.
	Kind OpKind
	// Fence is the fence flavour for OpFence.
	Fence  FenceKind
	linked bool
}

// noSnoop is the snoop line of an instruction the LQ never squashes; it
// is not line-aligned, so no invalidation matches it.
const noSnoop = ^memsys.Addr(0)

// IsLoad reports whether the instruction produces a load value usable as
// a dependency source.
func (i *Instr) IsLoad() bool {
	return i.Kind == OpRead || i.Kind == OpReadAddrDp || i.Kind == OpRMW
}

// isStore reports whether the instruction writes its word.
func (i *Instr) isStore() bool { return i.Kind == OpWrite || i.Kind == OpRMW }

// isPlainLoad reports whether the instruction is a load the LQ snoops:
// a Read or ReadAddrDp (an RMW executes atomically at the cache).
func (i *Instr) isPlainLoad() bool { return i.Kind == OpRead || i.Kind == OpReadAddrDp }

// isLoadBarrier reports whether the instruction orders every later load
// after itself: an RMW, or a full or load-load fence.
func (i *Instr) isLoadBarrier() bool {
	return i.Kind == OpRMW || i.Kind == OpFence && i.Fence != FenceSS
}

// Program is the compiled instruction sequence of one thread.
type Program []Instr

// Linked reports whether p carries its links (see Linker).
func (p Program) Linked() bool { return len(p) == 0 || p[0].linked }

// PrevWord returns the index of the access before i — load or store — to
// i's word, or -1.
func (p Program) PrevWord(i int) int { return int(p[i].prevWord) - 1 }

// Forward returns the index of the youngest store before i to i's word,
// or -1: the store a load at i forwards from while it is buffered.
func (p Program) Forward(i int) int { return int(p[i].fwd) - 1 }

// SnoopLine returns the line whose invalidation squashes instruction i
// once it has performed: a plain load's line. ok is false for every
// other instruction, whose line matches no invalidation.
func (p Program) SnoopLine(i int) (line memsys.Addr, ok bool) {
	return p[i].snoop, p[i].snoop != noSnoop
}

// NextLoad returns the index of the first plain load (Read or
// ReadAddrDp) at or after i, or len(p).
func (p Program) NextLoad(i int) int {
	if i >= len(p) {
		return len(p)
	}
	return int(p[i].nextLoad)
}

// NextLoadBarrier returns the index of the first RMW, full fence or
// load-load fence at or after i, or len(p).
func (p Program) NextLoadBarrier(i int) int {
	if i >= len(p) {
		return len(p)
	}
	return int(p[i].nextStop)
}

// Linker links programs in place (see Program.Linked): one pass finds
// each access's predecessor on its word through a table keyed by word,
// one backward pass the next load and load barrier. The table is kept
// for the next program, so linking allocates only to grow it.
type Linker struct {
	slots []linkSlot
	// stamp marks the slots of the program being linked; the others are
	// empty.
	stamp uint32
}

// linkSlot maps a word to its latest access so far, an index plus one.
type linkSlot struct {
	word  memsys.Addr
	stamp uint32
	last  int32
}

// Link sets every link of p.
func (l *Linker) Link(p Program) {
	size := 16
	for size < 2*len(p) {
		size *= 2
	}
	if len(l.slots) < size {
		l.slots, l.stamp = make([]linkSlot, size), 0
	}
	if l.stamp++; l.stamp == 0 {
		clear(l.slots)
		l.stamp = 1
	}
	shift := 64 - bits.Len(uint(len(l.slots)-1))
	mask := len(l.slots) - 1
	for i := range p {
		in := &p[i]
		in.linked, in.prevWord, in.fwd, in.snoop = true, 0, 0, noSnoop
		if in.isPlainLoad() {
			in.snoop = in.Addr.LineAddr()
		}
		if !in.IsLoad() && !in.isStore() {
			continue
		}
		word := in.Addr.WordAddr()
		// Fibonacci hashing on the word number, then linear probing.
		h := int(uint64(word>>3) * 0x9e3779b97f4a7c15 >> shift)
		for l.slots[h].stamp == l.stamp && l.slots[h].word != word {
			h = (h + 1) & mask
		}
		slot := &l.slots[h]
		if slot.stamp == l.stamp {
			prev := &p[slot.last-1]
			in.prevWord, in.fwd = slot.last, prev.fwd
			if prev.isStore() {
				in.fwd = slot.last
			}
		}
		*slot = linkSlot{word: word, stamp: l.stamp, last: int32(i + 1)}
	}
	load, stop := int32(len(p)), int32(len(p))
	for i := len(p) - 1; i >= 0; i-- {
		in := &p[i]
		if in.isPlainLoad() {
			load = int32(i)
		}
		if in.isLoadBarrier() {
			stop = int32(i)
		}
		in.nextLoad, in.nextStop = load, stop
	}
}

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
