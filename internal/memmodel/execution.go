package memmodel

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/memsys"
	"repro/internal/relation"
)

// Execution is a candidate execution object (§4.1): the events of one
// test iteration together with program order, read-from and coherence
// order. Conflict orders are fully visible in simulation, so rf and co
// are given, not guessed.
//
// Representation: events live in one slice indexed by their dense
// EventID, and everything else hangs off dense indices — each event's rf
// source, coherence position and address slot in a parallel per-event
// array, program order per thread slot, coherence order and initial
// write per address slot. A thread slot is found through a small table
// sorted by TID, an address slot through an open-addressed hash table;
// the type holds no map. Slots number threads and addresses in order of
// first use.
// Storage is sized only by how many events, threads and addresses are
// present, never by the value of a TID, instruction index or address:
// those come from the input and may be anything up to 2³¹ or 2⁶⁴.
type Execution struct {
	events []Event
	// links[id] is event id's share of the conflict orders.
	links []link

	// byTID is the thread table, sorted by TID; each entry names the
	// thread's slot in po, which is assigned on first use and never
	// moves. lastTID/lastSlot remember the thread of the latest added
	// event: events mostly arrive in runs of one thread.
	byTID    []threadRef
	po       [][]relation.EventID
	lastTID  int
	lastSlot int32
	// tids is the answer of Threads, valid while tidsValid (a thread
	// gaining its first event, or a reset, invalidates it).
	tids      []int
	tidsValid bool

	// cells is the hash table from a word address to its slot in addrTab
	// (assigned on first use): a power of two long, at most half full,
	// linearly probed. A cell names a slot — the address is read from
	// addrTab, which whoever asked for the slot reads next anyway — and is
	// in use only while its stamp equals gen, so Reset empties the table
	// by moving gen on and clears nothing.
	cells   []addrCell
	gen     uint32
	addrTab []addrState
	nInit   int
	// coArena backs the coherence orders of an execution whose builder
	// knew their lengths ahead (ReserveCO).
	coArena []relation.EventID
	// addrs is the answer of Addresses, valid while addrsValid (an
	// address gaining its first event, or a reset, invalidates it).
	addrs      []memsys.Addr
	addrsValid bool
	sortTmp    []memsys.Addr // what Addresses sorts through
}

// addrState is what the execution holds per address slot.
type addrState struct {
	addr memsys.Addr
	// init is the initial-write event, noEvent until created.
	init relation.EventID
	// co holds the writes in coherence order, including the (implicit)
	// initial write at position 0 once created.
	co []relation.EventID
}

// addrCell is one cell of the address table.
type addrCell struct {
	slot int32
	gen  uint32
}

// noEvent marks an absent event in the per-event and per-slot arrays.
const noEvent relation.EventID = -1

// link is the per-event part of rf and co: the write a read reads from,
// a write's position in its address's coherence order (both -1 until
// recorded), and the slot of the event's address (-1 for fences).
type link struct {
	rf    relation.EventID
	coPos int32
	addr  int32
}

type threadRef struct {
	tid  int
	slot int32
}

// NewExecution returns an empty execution.
func NewExecution() *Execution {
	return &Execution{cells: make([]addrCell, minAddrCells), gen: 1, lastSlot: -1}
}

// Reset empties the execution for reuse while keeping what it has
// allocated: the event and link arrays, the thread and address tables,
// and every per-thread and per-address order slice (they are handed to
// whichever threads and addresses come next). The caller must hold the
// only reference: a recorder that reuses one execution per iteration
// resets it only if it never handed it out.
func (x *Execution) Reset() {
	x.events = x.events[:0]
	x.links = x.links[:0]
	x.byTID = x.byTID[:0]
	x.po = x.po[:0]
	x.lastSlot = -1
	x.tidsValid = false
	x.gen++
	if x.gen == 0 { // wrapped: stale stamps could alias, so really clear
		clear(x.cells)
		x.gen = 1
	}
	x.addrTab = x.addrTab[:0]
	x.nInit = 0
	x.addrsValid = false
}

// grow extends s by one element and returns it with the index of the new
// element. Within capacity it revives whatever a truncation left there,
// so an element's own slices keep their backing arrays across Resets;
// the caller truncates them.
func grow[T any](s []T) ([]T, int) {
	n := len(s)
	if n < cap(s) {
		return s[:n+1], n
	}
	var zero T
	return append(s, zero), n
}

// searchThread returns tid's position in the sorted thread table, or the
// position it would be inserted at.
func (x *Execution) searchThread(tid int) (int, bool) {
	lo, hi := 0, len(x.byTID)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if x.byTID[mid].tid < tid {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(x.byTID) && x.byTID[lo].tid == tid
}

// findThread returns tid's slot, or -1 when no such thread exists.
func (x *Execution) findThread(tid int) int {
	i, ok := x.searchThread(tid)
	if !ok {
		return -1
	}
	return int(x.byTID[i].slot)
}

// threadSlot returns tid's slot, creating an empty thread on first use.
// A new TID above every present one is appended; any other shifts the
// table's tail, so whoever registers many threads does it in ascending
// order.
func (x *Execution) threadSlot(tid int) int {
	if x.lastSlot >= 0 && x.lastTID == tid {
		return int(x.lastSlot)
	}
	i, ok := x.searchThread(tid)
	if !ok {
		var slot int
		x.po, slot = grow(x.po)
		x.po[slot] = x.po[slot][:0]
		x.byTID = slices.Insert(x.byTID, i, threadRef{tid: tid, slot: int32(slot)})
	}
	x.lastTID, x.lastSlot = tid, x.byTID[i].slot
	return int(x.lastSlot)
}

// probe returns the index of addr's cell, or of the empty cell that ends
// its probe sequence, and whether it is addr's. Fibonacci hashing takes
// the product's high bits, so addresses that share their low bits (every
// aligned layout) still spread.
func (x *Execution) probe(addr memsys.Addr) (int, bool) {
	mask := len(x.cells) - 1
	i := int(uint64(addr) * 0x9e3779b97f4a7c15 >> (64 - uint(bits.TrailingZeros(uint(len(x.cells))))))
	for ; ; i = (i + 1) & mask {
		if c := x.cells[i]; c.gen != x.gen {
			return i, false
		} else if x.addrTab[c.slot].addr == addr {
			return i, true
		}
	}
}

// findAddr returns addr's slot, or -1 when no event has named the
// address.
func (x *Execution) findAddr(addr memsys.Addr) int32 {
	i, ok := x.probe(addr)
	if !ok {
		return -1
	}
	return x.cells[i].slot
}

// minAddrCells is the address table's first size.
const minAddrCells = 16

// slotOf returns addr's slot, creating it on first use. The table is
// sized by how many addresses are present — it doubles when a new one
// would fill it past half — never by an address's value. Only an event
// naming addr asks for a slot, so every slot is an address Addresses
// lists.
func (x *Execution) slotOf(addr memsys.Addr) int32 {
	i, ok := x.probe(addr)
	if ok {
		return x.cells[i].slot
	}
	if 2*(len(x.addrTab)+1) > len(x.cells) {
		x.cells = make([]addrCell, 2*len(x.cells))
		for slot := range x.addrTab {
			j, _ := x.probe(x.addrTab[slot].addr)
			x.cells[j] = addrCell{slot: int32(slot), gen: x.gen}
		}
		i, _ = x.probe(addr)
	}
	var slot int
	x.addrTab, slot = grow(x.addrTab)
	x.addrTab[slot] = addrState{addr: addr, init: noEvent, co: x.addrTab[slot].co[:0]}
	x.cells[i] = addrCell{slot: int32(slot), gen: x.gen}
	x.addrsValid = false
	return int32(slot)
}

// ReserveCO gives the coherence order of every address slot room for
// room[slot] events, all out of one array the execution keeps — for a
// builder that knows the lengths, one allocation at most instead of one
// growing slice per address. room has an entry for every address slot.
// It empties every coherence order, so it is called before the first
// AppendCO or InitWrite. The room is a capacity, not a limit: an order
// that outgrows it moves to storage of its own.
func (x *Execution) ReserveCO(room []int32) {
	total := 0
	for _, n := range room {
		total += int(n)
	}
	x.coArena = slices.Grow(x.coArena[:0], total)[:total]
	off := 0
	for slot := range x.addrTab {
		n := int(room[slot])
		x.addrTab[slot].co = x.coArena[off : off : off+n]
		off += n
	}
}

// NumEvents returns the number of events, including initial writes.
func (x *Execution) NumEvents() int { return len(x.events) }

// Event returns the event with the given ID.
func (x *Execution) Event(id relation.EventID) *Event { return &x.events[id] }

// Events returns all events. The returned slice must not be mutated.
func (x *Execution) Events() []Event { return x.events }

// Threads returns the sorted TIDs with at least one event. Like
// Addresses it is computed once per set of threads into storage the
// execution keeps: the caller must not mutate the slice, it is only good
// until the next AddEvent, InitWrite or Reset, and — the first call
// being a write — goroutines sharing an execution must not make it
// concurrently (Builder.Build has made it already).
func (x *Execution) Threads() []int {
	if x.tidsValid {
		return clipped(x.tids)
	}
	tids := x.tids[:0]
	for _, r := range x.byTID {
		if r.tid != InitTID && len(x.po[r.slot]) > 0 {
			tids = append(tids, r.tid)
		}
	}
	x.tids, x.tidsValid = tids, true
	return clipped(tids)
}

// clipped returns s without spare capacity, so an append by whoever
// receives it copies instead of writing into the kept array.
func clipped[T any](s []T) []T { return s[:len(s):len(s)] }

// ThreadEvents returns the event IDs of tid in program order.
func (x *Execution) ThreadEvents(tid int) []relation.EventID {
	slot := x.findThread(tid)
	if slot < 0 {
		return nil
	}
	return x.po[slot]
}

// AddEvent appends an event to its thread's program order and returns its
// ID. PO is assigned from the thread's current length.
func (x *Execution) AddEvent(e Event) relation.EventID {
	id := relation.EventID(len(x.events))
	slot := x.threadSlot(e.Key.TID)
	e.ID = id
	e.PO = len(x.po[slot])
	if e.PO == 0 {
		x.tidsValid = false
	}
	l := link{rf: noEvent, coPos: -1, addr: -1}
	if e.Kind != KindFence {
		l.addr = x.slotOf(e.Addr)
	}
	x.events = append(x.events, e)
	x.links = append(x.links, l)
	x.po[slot] = append(x.po[slot], id)
	return id
}

// InitWrite returns the initial-write event for addr, creating it on
// first use with value 0.
func (x *Execution) InitWrite(addr memsys.Addr) relation.EventID {
	slot := x.slotOf(addr)
	if id := x.addrTab[slot].init; id != noEvent {
		return id
	}
	id := x.AddEvent(Event{
		Key:   Key{TID: InitTID, Instr: x.nInit},
		Kind:  KindWrite,
		Addr:  addr,
		Value: 0,
	})
	x.nInit++
	a := &x.addrTab[slot]
	a.init = id
	// The initial write is co-minimal for its address: it must precede
	// any writes already serialized.
	order := append(a.co, id)
	copy(order[1:], order)
	order[0] = id
	a.co = order
	for i, w := range order {
		x.links[w].coPos = int32(i)
	}
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
	x.links[r].rf = w
	return nil
}

// RF returns the write read r reads from, if recorded.
func (x *Execution) RF(r relation.EventID) (relation.EventID, bool) {
	w := x.links[r].rf
	return max(w, 0), w != noEvent
}

// AppendCO appends write w to the coherence order of its address.
// The initial write for the address, if created later, is prepended.
func (x *Execution) AppendCO(w relation.EventID) error {
	we := &x.events[w]
	if !we.IsWrite() {
		return fmt.Errorf("memmodel: co element %v is not a write", we)
	}
	l := &x.links[w]
	a := &x.addrTab[l.addr]
	l.coPos = int32(len(a.co))
	a.co = append(a.co, w)
	return nil
}

// CO returns the coherence order of addr (including the initial write if
// it has been created).
func (x *Execution) CO(addr memsys.Addr) []relation.EventID {
	slot := x.findAddr(addr)
	if slot < 0 {
		return nil
	}
	return x.addrTab[slot].co
}

// COIndex returns w's position within its address's coherence order —
// the coherence clock the fastpath checker's frontier rules compare.
func (x *Execution) COIndex(w relation.EventID) (int, bool) {
	pos := x.links[w].coPos
	return max(int(pos), 0), pos >= 0
}

// COSuccessor returns the write immediately co-after w, if any.
func (x *Execution) COSuccessor(w relation.EventID) (relation.EventID, bool) {
	l := x.links[w]
	if l.coPos < 0 {
		return 0, false
	}
	if order := x.addrTab[l.addr].co; int(l.coPos)+1 < len(order) {
		return order[l.coPos+1], true
	}
	return 0, false
}

// NumAddrSlots returns the number of address slots: every event that is
// not a fence has AddrSlot in [0, NumAddrSlots).
func (x *Execution) NumAddrSlots() int { return len(x.addrTab) }

// AddrSlot returns the dense slot of event id's address, -1 for a fence.
// Slots number the execution's addresses in order of first use; checkers
// index their per-address state by it instead of hashing the address.
func (x *Execution) AddrSlot(id relation.EventID) int { return int(x.links[id].addr) }

// Addresses returns the sorted set of word addresses touched by writes or
// reads of the execution. It is computed once per set of addresses into
// storage the execution keeps: the caller must not mutate the slice, it
// is only good until the next AddEvent, InitWrite or Reset, and — the
// first call being a write — goroutines sharing an execution must not
// call it concurrently.
func (x *Execution) Addresses() []memsys.Addr {
	if x.addrsValid {
		return clipped(x.addrs)
	}
	x.addrs = x.addrs[:0]
	for i := range x.addrTab {
		x.addrs = append(x.addrs, x.addrTab[i].addr)
	}
	x.sortTmp = memsys.SortAddrs(x.addrs, x.sortTmp)
	x.addrsValid = true
	return clipped(x.addrs)
}

// The edge emitters below append one derived relation each to a
// constraint graph, as immediate edges: the cycle search only needs
// reachability. They are the one derivation of each relation; check and
// GHBGraph compose them, cutting the graph between relations.

// rfEdges appends the rf edges (write -> read) to g; with externalOnly
// just rfe, those whose writer and reader are on different threads.
// Initial writes are external to every reader.
func (x *Execution) rfEdges(g *relation.Graph, externalOnly bool) {
	for read := range x.links {
		write := x.links[read].rf
		if write == noEvent || externalOnly && x.events[read].Key.TID == x.events[write].Key.TID {
			continue
		}
		g.Add(write, relation.EventID(read))
	}
}

// coEdges appends the immediate-successor edges of co to g.
func (x *Execution) coEdges(g *relation.Graph) {
	for s := range x.addrTab {
		order := x.addrTab[s].co
		for i := 0; i+1 < len(order); i++ {
			g.Add(order[i], order[i+1])
		}
	}
}

// coreEdges makes g the co ∪ fr core both constraint graphs start
// from, one closed segment each. The core is acyclic by construction
// (no edge enters a read, and co is a chain per address).
func (x *Execution) coreEdges(g *relation.Graph) {
	g.Reset()
	x.coEdges(g)
	g.Cut()
	x.frEdges(g)
	g.Cut()
}

// frEdges appends the from-read relation fr = rf⁻¹;co to g: each read
// points at the co-successor of the write it read from, and reaches all
// later writes through co edges.
func (x *Execution) frEdges(g *relation.Graph) {
	for read := range x.links {
		if write := x.links[read].rf; write != noEvent {
			if succ, ok := x.COSuccessor(write); ok {
				g.Add(relation.EventID(read), succ)
			}
		}
	}
}

// polocEdges appends program order restricted to same-address pairs to
// g, as per-(thread, address) chains. last is working storage the
// caller keeps: the latest event of the thread being walked, per
// address slot.
func (x *Execution) polocEdges(g *relation.Graph, last *AddrMarks) {
	for _, ids := range x.po {
		last.Begin(x)
		for _, id := range ids {
			slot := x.links[id].addr
			if slot < 0 {
				continue
			}
			if prev, ok := last.Swap(int(slot), int64(id)); ok {
				g.Add(relation.EventID(prev), id)
			}
		}
	}
}

// AddrMarks is per-address-slot working storage for a walk that visits
// one thread at a time — the latest event, or the latest coherence
// clock, seen at each address. Begin starts a thread by stamping a new
// epoch rather than clearing, so a walk costs its events, not threads ×
// addresses. The zero value is ready; the storage is kept between walks.
type AddrMarks struct {
	epoch uint32
	marks []addrMark
}

type addrMark struct {
	epoch uint32
	val   int64
}

// Begin forgets every mark and makes room for x's address slots.
func (m *AddrMarks) Begin(x *Execution) {
	if n := x.NumAddrSlots(); len(m.marks) < n {
		m.marks = append(m.marks, make([]addrMark, n-len(m.marks))...)
	}
	m.epoch++
	if m.epoch == 0 { // wrapped: stale stamps could alias, so really clear
		clear(m.marks)
		m.epoch = 1
	}
}

// Swap marks slot with val and returns the mark it replaces, if the slot
// was marked since Begin.
func (m *AddrMarks) Swap(slot int, val int64) (prev int64, ok bool) {
	k := &m.marks[slot]
	prev, ok = k.val, k.epoch == m.epoch
	k.epoch, k.val = m.epoch, val
	return prev, ok
}

// Validate performs structural sanity checks: every read has an rf edge,
// every non-init write appears in co, and rf values match.
func (x *Execution) Validate() error {
	for i := range x.events {
		e := &x.events[i]
		switch {
		case e.IsRead():
			w := x.links[i].rf
			if w == noEvent {
				return fmt.Errorf("memmodel: read %v has no rf edge", e)
			}
			if x.events[w].Value != e.Value {
				return fmt.Errorf("memmodel: rf value mismatch: %v reads-from %v", e, &x.events[w])
			}
		case e.IsWrite():
			if x.links[i].coPos < 0 {
				return fmt.Errorf("memmodel: write %v not in coherence order", e)
			}
		}
	}
	return nil
}
