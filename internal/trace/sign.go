package trace

import (
	"math/bits"
	"slices"

	"repro/internal/collective"
	"repro/internal/memmodel"
	"repro/internal/memsys"
)

// Sign returns the signature of t's execution — collective.Signature of
// what Execution builds — computed from t's fields, with no builder and
// no execution, when t has the canonical shape FromExecution and both
// encoders write:
//
//   - thread TIDs strictly ascending, none of them memmodel.InitTID;
//   - exactly one rf edge per read, in thread-major program order;
//   - a nonempty co order for every written address, strictly ascending
//     by address.
//
// ok is false for any other shape; the caller then signs the execution.
// For a canonical trace that fails to materialize, Sign still answers:
// a signature no execution has, under which nothing is ever decided.
//
// The walk is the materializer's: op keys by Op.key, an RMW as a read
// and a write sharing its key with subs 0 and 1, a fence with a zero
// address and value. What the execution finds by building, the walk
// reads off the shape: an rf edge names its source by the key it will
// resolve to, a co order its writes, and the addresses the execution
// holds without a co order are those read only from their initial
// write — found, with the co orders that begin with one, through an
// index of the trace's addresses. Its storage is the Materializer's,
// so in steady state Sign allocates nothing.
func (m *Materializer) Sign(t *Trace) (sig collective.Sig, ok bool) {
	m.addrs, m.coInit = m.addrs[:0], m.coInit[:0]
	listed := 0
	for i := range t.CO {
		c := &t.CO[i]
		if len(c.Writes) == 0 || i > 0 && c.Addr <= t.CO[i-1].Addr {
			return sig, false
		}
		m.addrs = append(m.addrs, c.Addr)
		m.coInit = append(m.coInit, false)
		listed += len(c.Writes)
	}
	m.index()

	h := collective.NewHasher()
	writes, rf := 0, t.RF
	for ti := range t.Threads {
		th := &t.Threads[ti]
		if th.TID == memmodel.InitTID || ti > 0 && th.TID <= t.Threads[ti-1].TID {
			return sig, false
		}
		if len(th.Ops) > 0 {
			h.Thread(th.TID)
		}
		next := 0
		for i := range th.Ops {
			op := &th.Ops[i]
			var k memmodel.Key
			k, next = op.key(th.TID, next)
			switch op.Kind {
			case OpRead:
				h.Event(k, memmodel.KindRead, 0, op.Addr, op.Value, op.Atomic)
			case OpWrite:
				h.Event(k, memmodel.KindWrite, 0, op.Addr, op.Value, op.Atomic)
				writes++
				continue
			case OpFence:
				h.Event(k, memmodel.KindFence, op.Fence, 0, 0, false)
				continue
			case OpRMW:
				h.Event(k, memmodel.KindRead, 0, op.Addr, op.Value, true)
			default:
				return sig, false
			}
			// The read, or an RMW's read half: its source.
			if len(rf) == 0 || rf[0].Read != (Ref{TID: k.TID, Instr: k.Instr, Sub: k.Sub}) {
				return sig, false
			}
			if rf[0].Init {
				h.Write(memmodel.Key{TID: memmodel.InitTID}, op.Addr)
				m.readsInit(op.Addr)
			} else {
				w := rf[0].Write
				h.Write(memmodel.Key{TID: w.TID, Instr: w.Instr, Sub: w.Sub}, op.Addr)
			}
			rf = rf[1:]
			if op.Kind == OpRMW {
				k.Sub = 1
				h.Event(k, memmodel.KindWrite, 0, op.Addr, op.Value2, true)
				writes++
			}
		}
	}
	// Every rf edge named a read, and the co orders list as many writes
	// as there are: a trace that materializes lists each write once, at
	// its own address, so no written address is left without an order.
	if len(rf) != 0 || listed != writes {
		return sig, false
	}

	// The addresses read only from their initial write, in order, merged
	// into the co orders' (already in order).
	readOnly := m.addrs[len(t.CO):]
	slices.Sort(readOnly)
	for i := range t.CO {
		c := &t.CO[i]
		for len(readOnly) > 0 && readOnly[0] < c.Addr {
			h.CO(readOnly[0])
			h.Write(memmodel.Key{TID: memmodel.InitTID}, readOnly[0])
			readOnly = readOnly[1:]
		}
		h.CO(c.Addr)
		if m.coInit[i] {
			h.Write(memmodel.Key{TID: memmodel.InitTID}, c.Addr)
		}
		for _, w := range c.Writes {
			h.Write(memmodel.Key{TID: w.TID, Instr: w.Instr, Sub: w.Sub}, c.Addr)
		}
	}
	for _, addr := range readOnly {
		h.CO(addr)
		h.Write(memmodel.Key{TID: memmodel.InitTID}, addr)
	}
	return h.Sum(), true
}

// index builds the address index over addrs: an open-addressed table, a
// power of two long and at most half full, whose cells hold a position
// in addrs plus one (zero is empty).
func (m *Materializer) index() {
	size := 16
	for size < 2*(len(m.addrs)+1) {
		size *= 2
	}
	if cap(m.cells) < size {
		m.cells = make([]int32, size)
	}
	m.cells = m.cells[:size]
	m.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	clear(m.cells)
	for i, addr := range m.addrs {
		m.cells[m.probe(addr)] = int32(i) + 1
	}
}

// probe returns the cell of addr, or the empty cell that ends its probe
// sequence. Fibonacci hashing, as the execution's address table.
func (m *Materializer) probe(addr memsys.Addr) int {
	mask := len(m.cells) - 1
	i := int(uint64(addr) * 0x9e3779b97f4a7c15 >> m.shift)
	for ; m.cells[i] != 0 && m.addrs[m.cells[i]-1] != addr; i = (i + 1) & mask {
	}
	return i
}

// readsInit records that a read of addr reads the initial write: on the
// address's co order when it has one, else by indexing the address as
// one without.
func (m *Materializer) readsInit(addr memsys.Addr) {
	i := m.probe(addr)
	if c := int(m.cells[i]); c != 0 {
		if c <= len(m.coInit) {
			m.coInit[c-1] = true
		}
		return
	}
	m.addrs = append(m.addrs, addr)
	if 2*len(m.addrs) > len(m.cells) {
		m.index()
		return
	}
	m.cells[i] = int32(len(m.addrs))
}
