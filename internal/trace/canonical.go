package trace

import (
	"math/bits"

	"repro/internal/memmodel"
	"repro/internal/relation"
)

// canonical is the canonical shape FromExecution and both encoders
// write, checked step by step as a walk goes through a trace thread by
// thread and op by op:
//
//   - thread TIDs strictly ascending, none of them memmodel.InitTID;
//   - exactly one rf edge per read, in thread-major program order;
//   - nonempty co orders, strictly ascending by address, listing as many
//     writes as there are.
//
// Sign and Materializer.build are its two walks: each asks it at every
// thread, read and write, and at the end, so the shape has this one
// definition. Op keys come from Op.key; an RMW is a read and a write
// sharing its key with subs 0 and 1.
type canonical struct {
	t *Trace
	// rf is the rf edges no read has matched yet.
	rf []RFEdge
	// listed counts the writes the co orders list, writes those the
	// walk has met.
	listed, writes int
}

// start begins a walk of t, checking its co orders; false means t is
// not of the shape.
func (c *canonical) start(t *Trace) bool {
	*c = canonical{t: t, rf: t.RF}
	for i := range t.CO {
		o := &t.CO[i]
		if len(o.Writes) == 0 || i > 0 && o.Addr <= t.CO[i-1].Addr {
			return false
		}
		c.listed += len(o.Writes)
	}
	return true
}

// thread checks the TID of thread ti, which the walk enters.
func (c *canonical) thread(ti int) bool {
	tid := c.t.Threads[ti].TID
	return tid != memmodel.InitTID && (ti == 0 || tid > c.t.Threads[ti-1].TID)
}

// read returns the rf edge of the read the walk meets at key k — the
// next edge, which must name it.
func (c *canonical) read(k memmodel.Key) (*RFEdge, bool) {
	if len(c.rf) == 0 || c.rf[0].Read.key() != k {
		return nil, false
	}
	e := &c.rf[0]
	c.rf = c.rf[1:]
	return e, true
}

// write counts a write the walk meets.
func (c *canonical) write() { c.writes++ }

// end checks, once the walk has met every op, that every rf edge named
// a read and that the co orders list as many writes as there are: a
// trace that materializes lists each write once, at its own address, so
// no written address is left without an order.
func (c *canonical) end() bool { return len(c.rf) == 0 && c.listed == c.writes }

// build builds t straight from its fields into the execution m keeps
// when t has the canonical shape and passes every check
// memmodel.Builder would make, and reports false otherwise; the caller
// then builds t through the Builder, from scratch, which finds the same
// failure and words it.
//
// The walk adds the program events thread-major, so IDs, program order
// and address slots come out as the Builder's do. It knows each read's
// rf edge from the shape; the source of an edge and the writes of a co
// order are found by key in m.keys, which the walk fills with its own
// events and which refuses a key taken twice. Initial writes follow the
// program events in read order, as Build creates them; each co order is
// appended as listed, after the initial write where a read created one.
// The checks are the Builder's: no repeated key, known fence kinds, rf
// from a write to a read of its address, each write listed once at its
// own address, and Execution.Validate for the rf values and for every
// write having its place in an order. All storage is sized by counts:
// m.keys by events, m.room by address slots.
func (m *Materializer) build(t *Trace) (*memmodel.Execution, bool) {
	var c canonical
	if !c.start(t) {
		return nil, false
	}
	if m.x == nil {
		m.x = memmodel.NewExecution()
	}
	x := m.x
	x.Reset()
	m.room = m.room[:0]
	ops := 0
	for i := range t.Threads {
		ops += len(t.Threads[i].Ops)
	}
	m.keys.reset(2 * ops) // an RMW is two events
	// add adds e to x and to m.keys, reporting false when its key is
	// taken.
	add := func(e memmodel.Event) bool {
		id := x.AddEvent(e)
		if e.Kind != memmodel.KindFence {
			slot := x.AddrSlot(id)
			if slot == len(m.room) {
				m.room = append(m.room, 1) // room for the initial write
			}
			if e.Kind == memmodel.KindWrite {
				m.room[slot]++
			}
		}
		return m.keys.add(x.Events(), id)
	}
	for ti := range t.Threads {
		if !c.thread(ti) {
			return nil, false
		}
		th := &t.Threads[ti]
		next := 0
		for i := range th.Ops {
			op := &th.Ops[i]
			var k memmodel.Key
			k, next = op.key(th.TID, next)
			ok := false
			switch op.Kind {
			case OpRead:
				_, ok = c.read(k)
				ok = ok && add(memmodel.Event{Key: k, Kind: memmodel.KindRead, Addr: op.Addr, Value: op.Value, Atomic: op.Atomic})
			case OpWrite:
				c.write()
				ok = add(memmodel.Event{Key: k, Kind: memmodel.KindWrite, Addr: op.Addr, Value: op.Value, Atomic: op.Atomic})
			case OpFence:
				ok = op.Fence < memmodel.NumFenceKinds && add(memmodel.Event{Key: k, Kind: memmodel.KindFence, Fence: op.Fence})
			case OpRMW:
				_, ok = c.read(k)
				ok = ok && add(memmodel.Event{Key: k, Kind: memmodel.KindRead, Addr: op.Addr, Value: op.Value, Atomic: true})
				k.Sub = 1
				c.write()
				ok = ok && add(memmodel.Event{Key: k, Kind: memmodel.KindWrite, Addr: op.Addr, Value: op.Value2, Atomic: true})
			}
			if !ok {
				return nil, false
			}
		}
	}
	if !c.end() {
		return nil, false
	}
	x.ReserveCO(m.room)

	// Read-from, read by read: the i-th read of the walk is the i-th edge.
	n := relation.EventID(x.NumEvents())
	rf := t.RF
	for r := relation.EventID(0); r < n; r++ {
		e := x.Event(r)
		if !e.IsRead() {
			continue
		}
		var w relation.EventID
		if rf[0].Init {
			w = x.InitWrite(e.Addr)
		} else {
			var ok bool
			if w, ok = m.keys.find(x.Events(), rf[0].Write); !ok {
				return nil, false
			}
		}
		rf = rf[1:]
		if x.SetRF(r, w) != nil {
			return nil, false
		}
	}
	// Coherence, order by order as listed. The orders list as many writes
	// as there are, so a write listed twice leaves another unlisted,
	// which Validate finds.
	for i := range t.CO {
		o := &t.CO[i]
		for _, ref := range o.Writes {
			w, ok := m.keys.find(x.Events(), ref)
			if !ok || x.Event(w).Addr != o.Addr || x.AppendCO(w) != nil {
				return nil, false
			}
		}
	}
	if x.Validate() != nil {
		return nil, false
	}
	// Answer Threads and Addresses once here, as Build does.
	x.Threads()
	x.Addresses()
	return x, true
}

// keyTable finds the events of one trace by key: an open-addressed hash
// table of event IDs, a power of two long and at most half full,
// linearly probed. A cell names an event, whose key is read from the
// events, and is in use only while its stamp equals gen, so reset empties
// the table by moving gen on. It is sized by how many events there are,
// never by what their keys hold.
type keyTable struct {
	cells []keyCell
	gen   uint32
}

type keyCell struct {
	id  relation.EventID
	gen uint32
}

// reset empties the table, with room for n events.
func (t *keyTable) reset(n int) {
	if size := max(16, 2<<bits.Len(uint(n))); len(t.cells) < size {
		t.cells, t.gen = make([]keyCell, size), 0
	}
	if t.gen++; t.gen == 0 { // wrapped: stale stamps could alias, so really clear
		clear(t.cells)
		t.gen = 1
	}
}

// probe returns the index of k's cell, or of the empty cell that ends its
// probe sequence, and whether it is k's.
func (t *keyTable) probe(events []memmodel.Event, k memmodel.Key) (int, bool) {
	h := (uint64(k.TID)*0xff51afd7ed558ccd ^ uint64(k.Instr)) * 0xc4ceb9fe1a85ec53
	h = (h ^ uint64(k.Sub)) * 0x9e3779b97f4a7c15
	mask := len(t.cells) - 1
	for i := int(h >> (64 - bits.TrailingZeros(uint(len(t.cells))))); ; i = (i + 1) & mask {
		if c := t.cells[i]; c.gen != t.gen {
			return i, false
		} else if events[c.id].Key == k {
			return i, true
		}
	}
}

// add enters event id of events under its key, reporting false when
// another event holds the key.
func (t *keyTable) add(events []memmodel.Event, id relation.EventID) bool {
	i, taken := t.probe(events, events[id].Key)
	if taken {
		return false
	}
	t.cells[i] = keyCell{id: id, gen: t.gen}
	return true
}

// find returns the event of events ref names.
func (t *keyTable) find(events []memmodel.Event, ref Ref) (relation.EventID, bool) {
	i, ok := t.probe(events, ref.key())
	return t.cells[i].id, ok
}
