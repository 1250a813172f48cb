package memmodel

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/memsys"
	"repro/internal/relation"
)

// Execution is a candidate execution object (§4.1): the events of one
// test iteration together with program order, read-from and coherence
// order. Conflict orders are fully visible in simulation, so rf and co
// are given, not guessed.
type Execution struct {
	events []Event
	// threads maps TID -> event IDs in program order (fences included).
	threads map[int][]relation.EventID
	// rf maps each read event to the write event it reads from.
	rf map[relation.EventID]relation.EventID
	// co maps each word address to its writes in coherence order,
	// including the (implicit) initial write at position 0 when created.
	co map[memsys.Addr][]relation.EventID
	// coPos caches each write's position within its address's co order.
	coPos map[relation.EventID]int
	// init maps each address to its initial-write event, created lazily.
	init map[memsys.Addr]relation.EventID
	// addrs is the answer of Addresses, valid while addrsValid (adding
	// an event or resetting invalidates it); addrSet is the set it is
	// built through, made on first use and kept like addrs.
	addrs      []memsys.Addr
	addrSet    map[memsys.Addr]struct{}
	addrsValid bool
}

// NewExecution returns an empty execution.
func NewExecution() *Execution {
	return &Execution{
		threads: make(map[int][]relation.EventID),
		rf:      make(map[relation.EventID]relation.EventID),
		co:      make(map[memsys.Addr][]relation.EventID),
		coPos:   make(map[relation.EventID]int),
		init:    make(map[memsys.Addr]relation.EventID),
	}
}

// Reset empties the execution for reuse while keeping what it has
// allocated: the event array, the maps' buckets, and the per-thread and
// per-address order slices (truncated in place, so a reset execution may
// hold empty entries for threads and addresses it no longer has). The
// caller must hold the only reference: a recorder that reuses one
// execution per iteration resets it only if it never handed it out.
func (x *Execution) Reset() {
	x.events = x.events[:0]
	for tid, ids := range x.threads {
		x.threads[tid] = ids[:0]
	}
	for addr, order := range x.co {
		x.co[addr] = order[:0]
	}
	clear(x.rf)
	clear(x.coPos)
	clear(x.init)
	x.addrsValid = false
}

// NumEvents returns the number of events, including initial writes.
func (x *Execution) NumEvents() int { return len(x.events) }

// Event returns the event with the given ID.
func (x *Execution) Event(id relation.EventID) *Event { return &x.events[id] }

// Events returns all events. The returned slice must not be mutated.
func (x *Execution) Events() []Event { return x.events }

// Threads returns the sorted TIDs with at least one event.
func (x *Execution) Threads() []int {
	tids := make([]int, 0, len(x.threads))
	for tid, ids := range x.threads {
		if tid != InitTID && len(ids) > 0 {
			tids = append(tids, tid)
		}
	}
	sort.Ints(tids)
	return tids
}

// ThreadEvents returns the event IDs of tid in program order.
func (x *Execution) ThreadEvents(tid int) []relation.EventID { return x.threads[tid] }

// AddEvent appends an event to its thread's program order and returns its
// ID. PO is assigned from the thread's current length.
func (x *Execution) AddEvent(e Event) relation.EventID {
	id := relation.EventID(len(x.events))
	e.ID = id
	e.PO = len(x.threads[e.Key.TID])
	x.events = append(x.events, e)
	x.threads[e.Key.TID] = append(x.threads[e.Key.TID], id)
	x.addrsValid = false
	return id
}

// InitWrite returns the initial-write event for addr, creating it on
// first use with value 0.
func (x *Execution) InitWrite(addr memsys.Addr) relation.EventID {
	if id, ok := x.init[addr]; ok {
		return id
	}
	id := x.AddEvent(Event{
		Key:   Key{TID: InitTID, Instr: len(x.init)},
		Kind:  KindWrite,
		Addr:  addr,
		Value: 0,
	})
	x.init[addr] = id
	// The initial write is co-minimal for its address: it must precede
	// any writes already serialized.
	order := append(x.co[addr], id)
	copy(order[1:], order)
	order[0] = id
	x.co[addr] = order
	x.renumberCO(addr)
	return id
}

// SetRF records that read r reads from write w.
func (x *Execution) SetRF(r, w relation.EventID) error {
	re, we := &x.events[r], &x.events[w]
	if !re.IsRead() {
		return fmt.Errorf("memmodel: rf target %v is not a read", re)
	}
	if !we.IsWrite() {
		return fmt.Errorf("memmodel: rf source %v is not a write", we)
	}
	if re.Addr != we.Addr {
		return fmt.Errorf("memmodel: rf address mismatch %v vs %v", re, we)
	}
	x.rf[r] = w
	return nil
}

// RF returns the write read r reads from, if recorded.
func (x *Execution) RF(r relation.EventID) (relation.EventID, bool) {
	w, ok := x.rf[r]
	return w, ok
}

// AppendCO appends write w to the coherence order of its address.
// The initial write for the address, if created later, is prepended.
func (x *Execution) AppendCO(w relation.EventID) error {
	we := &x.events[w]
	if !we.IsWrite() {
		return fmt.Errorf("memmodel: co element %v is not a write", we)
	}
	x.coPos[w] = len(x.co[we.Addr])
	x.co[we.Addr] = append(x.co[we.Addr], w)
	return nil
}

func (x *Execution) renumberCO(addr memsys.Addr) {
	for i, id := range x.co[addr] {
		x.coPos[id] = i
	}
}

// CO returns the coherence order of addr (including the initial write if
// it has been created).
func (x *Execution) CO(addr memsys.Addr) []relation.EventID { return x.co[addr] }

// COIndex returns w's position within its address's coherence order —
// the coherence clock the fastpath checker's frontier rules compare.
func (x *Execution) COIndex(w relation.EventID) (int, bool) {
	pos, ok := x.coPos[w]
	return pos, ok
}

// COSuccessor returns the write immediately co-after w, if any.
func (x *Execution) COSuccessor(w relation.EventID) (relation.EventID, bool) {
	addr := x.events[w].Addr
	pos, ok := x.coPos[w]
	if !ok {
		return 0, false
	}
	order := x.co[addr]
	if pos+1 < len(order) {
		return order[pos+1], true
	}
	return 0, false
}

// Addresses returns the sorted set of word addresses touched by writes or
// reads of the execution. It is computed once per set of events into
// storage the execution keeps: the caller must not mutate the slice, it
// is only good until the next AddEvent, InitWrite or Reset, and — the
// first call being a write — goroutines sharing an execution must not
// call it concurrently.
func (x *Execution) Addresses() []memsys.Addr {
	if x.addrsValid {
		return x.addrs
	}
	if x.addrSet == nil {
		x.addrSet = make(map[memsys.Addr]struct{})
	}
	clear(x.addrSet)
	for i := range x.events {
		if x.events[i].Kind != KindFence {
			x.addrSet[x.events[i].Addr] = struct{}{}
		}
	}
	addrs := slices.Grow(x.addrs[:0], len(x.addrSet))
	for a := range x.addrSet {
		addrs = append(addrs, a)
	}
	slices.Sort(addrs)
	x.addrs, x.addrsValid = addrs, true
	return addrs
}

// RFRelation returns rf as a relation (write -> read).
func (x *Execution) RFRelation() *relation.Relation {
	return x.RFRelationInto(relation.New())
}

// RFRelationInto adds the rf edges to r and returns it — the
// caller-provided-buffer variant the pooled check scratch uses.
func (x *Execution) RFRelationInto(r *relation.Relation) *relation.Relation {
	for read, write := range x.rf {
		r.Add(write, read)
	}
	return r
}

// CORelation returns the immediate-successor edges of co. Reachability
// over immediate edges equals the full co order, which is all the cycle
// search needs.
func (x *Execution) CORelation() *relation.Relation {
	return x.CORelationInto(relation.New())
}

// CORelationInto adds the immediate co edges to r and returns it.
func (x *Execution) CORelationInto(r *relation.Relation) *relation.Relation {
	for _, order := range x.co {
		for i := 0; i+1 < len(order); i++ {
			r.Add(order[i], order[i+1])
		}
	}
	return r
}

// FRRelation returns the from-read relation fr = rf⁻¹;co as immediate
// edges: each read points at the co-successor of the write it read from;
// reachability extends to all later writes through co edges.
func (x *Execution) FRRelation() *relation.Relation {
	return x.FRRelationInto(relation.New())
}

// FRRelationInto adds the immediate fr edges to r and returns it.
func (x *Execution) FRRelationInto(r *relation.Relation) *relation.Relation {
	for read, write := range x.rf {
		if succ, ok := x.COSuccessor(write); ok {
			r.Add(read, succ)
		}
	}
	return r
}

// POLocRelation returns program order restricted to same-address pairs,
// as per-(thread,address) chains of immediate edges.
func (x *Execution) POLocRelation() *relation.Relation {
	return x.POLocRelationInto(relation.New())
}

// POLocRelationInto adds the po-loc chain edges to r and returns it.
func (x *Execution) POLocRelationInto(r *relation.Relation) *relation.Relation {
	for _, ids := range x.threads {
		last := make(map[memsys.Addr]relation.EventID)
		for _, id := range ids {
			e := &x.events[id]
			if e.Kind == KindFence {
				continue
			}
			if prev, ok := last[e.Addr]; ok {
				r.Add(prev, id)
			}
			last[e.Addr] = id
		}
	}
	return r
}

// RFERelation returns external read-from edges (writer and reader on
// different threads). Initial writes are external to every reader.
func (x *Execution) RFERelation() *relation.Relation {
	return x.RFERelationInto(relation.New())
}

// RFERelationInto adds the external rf edges to r and returns it.
func (x *Execution) RFERelationInto(r *relation.Relation) *relation.Relation {
	for read, write := range x.rf {
		if x.events[read].Key.TID != x.events[write].Key.TID {
			r.Add(write, read)
		}
	}
	return r
}

// Validate performs structural sanity checks: every read has an rf edge,
// every non-init write appears in co, and rf values match.
func (x *Execution) Validate() error {
	for i := range x.events {
		e := &x.events[i]
		switch {
		case e.IsRead():
			w, ok := x.rf[e.ID]
			if !ok {
				return fmt.Errorf("memmodel: read %v has no rf edge", e)
			}
			if x.events[w].Value != e.Value {
				return fmt.Errorf("memmodel: rf value mismatch: %v reads-from %v", e, &x.events[w])
			}
		case e.IsWrite():
			if _, ok := x.coPos[e.ID]; !ok {
				return fmt.Errorf("memmodel: write %v not in coherence order", e)
			}
		}
	}
	return nil
}
