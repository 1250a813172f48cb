package trace

import (
	"slices"

	"repro/internal/collective"
	"repro/internal/memmodel"
	"repro/internal/memsys"
)

// Sign returns the signature of t's execution — collective.Signature of
// what Execution builds — computed from t's fields, with no builder and
// no execution, when t has the canonical shape (see canonical). ok is
// false for any other shape; the caller then signs the execution. For a
// canonical trace that fails to materialize, Sign still answers: a
// signature no execution has, under which nothing is ever decided.
//
// The walk is the materializer's: op keys by Op.key, an RMW as a read
// and a write sharing its key with subs 0 and 1, a fence with a zero
// address and value. What the execution finds by building, the walk
// reads off the shape: an rf edge names its source by the key it will
// resolve to, a co order its writes. The addresses reads take from the
// initial write, sorted and each once, say which co orders begin with
// the initial write and which addresses the execution holds with no co
// order: those read only from it. Its storage is the Materializer's, so
// in steady state Sign allocates nothing.
func (m *Materializer) Sign(t *Trace) (sig collective.Sig, ok bool) {
	var c canonical
	if !c.start(t) {
		return sig, false
	}
	m.addrs = m.addrs[:0]

	h := collective.NewHasher()
	for ti := range t.Threads {
		if !c.thread(ti) {
			return sig, false
		}
		th := &t.Threads[ti]
		if len(th.Ops) > 0 {
			h.Thread(int(th.TID))
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
				c.write()
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
			e, ok := c.read(k)
			if !ok {
				return sig, false
			}
			if e.Init {
				h.Write(memmodel.Key{TID: memmodel.InitTID}, op.Addr)
				m.addrs = append(m.addrs, op.Addr)
			} else {
				h.Write(e.Write.key(), op.Addr)
			}
			if op.Kind == OpRMW {
				k.Sub = 1
				h.Event(k, memmodel.KindWrite, 0, op.Addr, op.Value2, true)
				c.write()
			}
		}
	}
	if !c.end() {
		return sig, false
	}

	// The addresses read from their initial write, in order and once
	// each, merged into the co orders' (already in order): on an
	// address with a co order the initial write comes first, on one
	// without it is the order.
	m.sortTmp = memsys.SortAddrs(m.addrs, m.sortTmp)
	inits := slices.Compact(m.addrs)
	for i := range t.CO {
		c := &t.CO[i]
		for len(inits) > 0 && inits[0] < c.Addr {
			h.CO(inits[0])
			h.Write(memmodel.Key{TID: memmodel.InitTID}, inits[0])
			inits = inits[1:]
		}
		h.CO(c.Addr)
		if len(inits) > 0 && inits[0] == c.Addr {
			h.Write(memmodel.Key{TID: memmodel.InitTID}, c.Addr)
			inits = inits[1:]
		}
		for _, w := range c.Writes {
			h.Write(w.key(), c.Addr)
		}
	}
	for _, addr := range inits {
		h.CO(addr)
		h.Write(memmodel.Key{TID: memmodel.InitTID}, addr)
	}
	return h.Sum(), true
}
