package memmodel

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/memsys"
	"repro/internal/relation"
)

// Builder assembles candidate executions with validation, replacing the
// raw struct-literal construction that used to be scattered across
// tests and the litmus materializer. It is also the target the trace
// decoder builds into, so every construction path shares one set of
// well-formedness rules.
//
// Events are appended per thread in program order; their Keys default
// to (thread, running instruction index, sub 0) but can be pinned
// explicitly via the Keyed variants when key identity matters (RMW
// pairing, signature stability across encode/decode round trips).
// Coherence order defaults to write-registration order per address and
// can be overridden with CO; read-from edges default to value
// resolution — value 0 reads the initial write, any other value must
// match exactly one write to the address — and can be pinned with
// SetRF/SetRFInit.
//
// Errors are sticky: the first malformed call poisons the builder and
// Build returns it. Build returns the execution at most once per use;
// Reset starts the next use on the storage of the last.
//
// Representation: like Execution, the builder holds no map. Its state
// runs parallel to the execution's dense indices — per thread slot the
// instruction counter and a key index, per address slot the write
// sequence, the override and (built only when an unpinned nonzero read
// asks) the writes by value, per event the rf pin — so it too is sized by
// counts of things present, never by a TID, instruction index, address
// or value taken from the input. Per-address lists (default and
// overriding coherence orders) are spans of shared arrays, not slices of
// their own: a trace touches hundreds of addresses a handful of times
// each.
type Builder struct {
	x    *Execution
	err  error
	done bool

	threads []builderThread
	addrs   []builderAddr
	events  []builderEvent
	// overrides holds every CO override back to back, seqs (laid out by
	// Build) every address's writes in registration order, byValue the
	// same sorted by value for the addresses that were asked; each
	// address names its spans.
	overrides []relation.EventID
	seqs      []relation.EventID
	byValue   []relation.EventID
	// room is Build's request to the execution: how long each address's
	// coherence order can get.
	room []int32
}

// builderThread is the builder's state for one thread slot.
type builderThread struct {
	nextInstr int
	// unordered is set once an event arrives whose key does not exceed
	// its predecessor's. Until then program order is key order and the
	// thread's event list is its own key index; after, byKey is — the
	// events sorted by (key, ID), rebuilt when the thread has grown.
	unordered bool
	byKey     []relation.EventID
}

// builderAddr is the builder's state for one address slot.
type builderAddr struct {
	// writes counts the registered writes. Build lays them out, in
	// registration order — the default coherence order — as
	// seqs[seqStart:seqStart+writes], filling the first seqFilled;
	// overrides[ovStart:ovEnd] replaces that order when overridden.
	writes, seqStart, seqFilled int32
	ovStart, ovEnd              int32
	overridden                  bool
	// coDone marks the address's order as appended during Build.
	coDone bool
	// byValue[valStart:valStart+writes] is the address's writes sorted by
	// (value, ID), once sorted is set.
	valStart int32
	sorted   bool
}

// builderEvent is the builder's state for one event.
type builderEvent struct {
	// pin is the read's pinned source: noEvent when unpinned, pinInit for
	// the initial write.
	pin relation.EventID
	// listed marks a write a CO override already names.
	listed bool
}

const pinInit relation.EventID = -2

// NewBuilder returns an empty builder.
func NewBuilder() *Builder {
	return &Builder{x: NewExecution()}
}

// NewBuilderInto returns an empty builder that builds into x, which it
// empties: x's storage is the builder's from then on, and the execution
// Build returns is x. A caller that fills an execution by other means
// too keeps one execution, not two, by handing it to the builder it
// falls back on.
func NewBuilderInto(x *Execution) *Builder {
	b := &Builder{x: x}
	b.Reset()
	return b
}

// Reset empties the builder for another execution, keeping its storage.
// The execution the last Build returned is part of that storage and is
// recycled: whoever called Build must have let go of it.
func (b *Builder) Reset() {
	b.x.Reset()
	b.err, b.done = nil, false
	b.threads = b.threads[:0]
	b.addrs = b.addrs[:0]
	b.events = b.events[:0]
	b.overrides = b.overrides[:0]
	b.byValue = b.byValue[:0]
}

// fail records the first error; later calls keep the original.
func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf("memmodel: builder: "+format, args...)
	}
}

// Err returns the first recorded error, if any.
func (b *Builder) Err() error { return b.err }

// thread returns the state of tid's thread slot, creating the thread on
// first use.
func (b *Builder) thread(tid int) (int, *builderThread) {
	slot := b.x.threadSlot(tid)
	for len(b.threads) <= slot {
		var i int
		b.threads, i = grow(b.threads)
		b.threads[i] = builderThread{byKey: b.threads[i].byKey[:0]}
	}
	return slot, &b.threads[slot]
}

// addr returns the state of an address slot of the execution.
func (b *Builder) addr(slot int32) *builderAddr {
	for len(b.addrs) <= int(slot) {
		b.addrs = append(b.addrs, builderAddr{})
	}
	return &b.addrs[slot]
}

// DeclareThread registers tid ahead of its first event. Nothing requires
// it — a thread exists from its first event on, and one that never gets
// an event stays invisible — but the thread table is sorted by TID and a
// TID below one already present shifts entries on the way in, so a
// caller about to add very many threads declares them in ascending order
// first.
func (b *Builder) DeclareThread(tid int) { b.thread(tid) }

func (b *Builder) autoKey(tid int) Key {
	_, t := b.thread(tid)
	n := t.nextInstr
	t.nextInstr = n + 1
	return Key{TID: tid, Instr: n}
}

// compareKeys orders the keys of one thread's events.
func compareKeys(a, b Key) int {
	if c := cmp.Compare(a.Instr, b.Instr); c != 0 {
		return c
	}
	return cmp.Compare(a.Sub, b.Sub)
}

// add appends e to the execution and to the builder's parallel state. An
// event the caller has just refused is appended all the same: the
// builder is poisoned, so the execution never leaves it, and the key
// bookkeeping (Lookup, DuplicateKey) goes on seeing every call.
func (b *Builder) add(e Event) relation.EventID {
	slot, t := b.thread(e.Key.TID)
	if ids := b.x.po[slot]; len(ids) > 0 && compareKeys(b.x.events[ids[len(ids)-1]].Key, e.Key) >= 0 {
		t.unordered = true
	}
	id := b.x.AddEvent(e)
	b.events = append(b.events, builderEvent{pin: noEvent})
	return id
}

// Read appends a read of addr observing val to tid's program order.
func (b *Builder) Read(tid int, addr memsys.Addr, val uint64) relation.EventID {
	return b.ReadKeyed(b.autoKey(tid), addr, val, false)
}

// ReadKeyed is Read with an explicit event key and atomicity flag.
func (b *Builder) ReadKeyed(key Key, addr memsys.Addr, val uint64, atomic bool) relation.EventID {
	if key.TID == InitTID {
		b.fail("read key %v uses the reserved initial-write TID", key)
	}
	return b.add(Event{
		Key:    key,
		Kind:   KindRead,
		Addr:   addr,
		Value:  val,
		Atomic: atomic,
	})
}

// Write appends a write of val to addr to tid's program order.
func (b *Builder) Write(tid int, addr memsys.Addr, val uint64) relation.EventID {
	return b.WriteKeyed(b.autoKey(tid), addr, val, false)
}

// WriteKeyed is Write with an explicit event key and atomicity flag.
func (b *Builder) WriteKeyed(key Key, addr memsys.Addr, val uint64, atomic bool) relation.EventID {
	if key.TID == InitTID {
		b.fail("write key %v uses the reserved initial-write TID", key)
	}
	id := b.add(Event{
		Key:    key,
		Kind:   KindWrite,
		Addr:   addr,
		Value:  val,
		Atomic: atomic,
	})
	b.addr(b.x.links[id].addr).writes++
	return id
}

// Fence appends a fence of the given flavour to tid's program order.
func (b *Builder) Fence(tid int, kind FenceKind) relation.EventID {
	return b.FenceKeyed(b.autoKey(tid), kind)
}

// FenceKeyed is Fence with an explicit event key.
func (b *Builder) FenceKeyed(key Key, kind FenceKind) relation.EventID {
	if key.TID == InitTID {
		b.fail("fence key %v uses the reserved initial-write TID", key)
	} else if kind >= NumFenceKinds {
		b.fail("fence key %v has unknown fence kind %d", key, kind)
	}
	return b.add(Event{Key: key, Kind: KindFence, Fence: kind})
}

// RMW appends an atomic read-modify-write reading old and writing new:
// two events sharing one instruction slot (sub 0 and 1), both Atomic —
// the pairing CheckAtomicity verifies.
func (b *Builder) RMW(tid int, addr memsys.Addr, old, new uint64) (r, w relation.EventID) {
	key := b.autoKey(tid)
	r = b.ReadKeyed(key, addr, old, true)
	key.Sub = 1
	w = b.WriteKeyed(key, addr, new, true)
	return r, w
}

// keyIndex returns the events of a thread slot sorted by key, ties by ID.
func (b *Builder) keyIndex(slot int) []relation.EventID {
	t, ids := &b.threads[slot], b.x.po[slot]
	if !t.unordered {
		return ids
	}
	if len(t.byKey) != len(ids) {
		events := b.x.events
		t.byKey = append(t.byKey[:0], ids...)
		slices.SortFunc(t.byKey, func(p, q relation.EventID) int {
			if c := compareKeys(events[p].Key, events[q].Key); c != 0 {
				return c
			}
			return cmp.Compare(p, q)
		})
	}
	return t.byKey
}

// Lookup returns the event carrying key — the first added, should
// several carry it: a lower-bound binary search of the thread's key
// index.
func (b *Builder) Lookup(key Key) (relation.EventID, bool) {
	slot := b.x.findThread(key.TID)
	if slot < 0 || slot >= len(b.threads) {
		return 0, false
	}
	events, ids := b.x.events, b.keyIndex(slot)
	lo, hi := 0, len(ids)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if compareKeys(events[ids[mid]].Key, key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(ids) || events[ids[lo]].Key != key {
		return 0, false
	}
	return ids[lo], true
}

// DuplicateKey reports whether two events share a key, returning the key
// of the first event added that repeats an earlier one's. The builder
// itself tolerates duplicates (Lookup answers with the first); callers
// whose keys are identities check.
func (b *Builder) DuplicateKey() (Key, bool) {
	events, first := b.x.events, noEvent
	for slot := range b.threads {
		if !b.threads[slot].unordered {
			continue // strictly ascending keys cannot repeat
		}
		ids := b.keyIndex(slot)
		for i := 1; i < len(ids); i++ {
			if events[ids[i]].Key == events[ids[i-1]].Key && (first == noEvent || ids[i] < first) {
				first = ids[i]
			}
		}
	}
	if first == noEvent {
		return Key{}, false
	}
	return events[first].Key, true
}

// SetRF pins read r to source write w, overriding value resolution.
func (b *Builder) SetRF(r, w relation.EventID) {
	if !b.has(r) || !b.has(w) {
		b.fail("SetRF(%d, %d) references an unknown event", r, w)
		return
	}
	re, we := b.x.Event(r), b.x.Event(w)
	if !re.IsRead() {
		b.fail("SetRF target %v is not a read", re)
		return
	}
	if !we.IsWrite() {
		b.fail("SetRF source %v is not a write", we)
		return
	}
	if re.Addr != we.Addr {
		b.fail("SetRF address mismatch: %v reads-from %v", re, we)
		return
	}
	if b.events[r].pin != noEvent {
		b.fail("read %v has two rf edges", re)
		return
	}
	b.events[r].pin = w
}

// SetRFInit pins read r to the initial write of its address.
func (b *Builder) SetRFInit(r relation.EventID) {
	if !b.has(r) {
		b.fail("SetRFInit(%d) references an unknown event", r)
		return
	}
	re := b.x.Event(r)
	if !re.IsRead() {
		b.fail("SetRFInit target %v is not a read", re)
		return
	}
	if b.events[r].pin != noEvent {
		b.fail("read %v has two rf edges", re)
		return
	}
	b.events[r].pin = pinInit
}

// CO overrides the coherence order of addr with the given writes. Every
// registered write to addr must appear exactly once; the initial write
// (if later created by rf resolution) stays implicitly co-minimal and
// must not be listed. The builder copies writes.
func (b *Builder) CO(addr memsys.Addr, writes ...relation.EventID) {
	// An address no event touches gets an idle slot to remember the
	// override by; the execution never shows it.
	a := b.addr(b.x.slotOf(addr))
	if a.overridden {
		b.fail("coherence order of %v set twice", addr)
		return
	}
	for _, w := range writes {
		if !b.has(w) {
			b.fail("CO(%v) references an unknown event %d", addr, w)
			return
		}
		we := b.x.Event(w)
		if !we.IsWrite() {
			b.fail("CO(%v) element %v is not a write", addr, we)
			return
		}
		if we.Addr != addr {
			b.fail("CO(%v) element %v writes a different address", addr, we)
			return
		}
		if b.events[w].listed {
			b.fail("CO(%v) lists write %v twice", addr, we)
			return
		}
		b.events[w].listed = true
	}
	if len(writes) != int(a.writes) {
		b.fail("CO(%v) lists %d writes, %d registered", addr, len(writes), a.writes)
		return
	}
	a.overridden, a.ovStart = true, int32(len(b.overrides))
	b.overrides = append(b.overrides, writes...)
	a.ovEnd = int32(len(b.overrides))
}

// has reports whether id is an event the builder added (the initial
// writes Build creates are the execution's alone).
func (b *Builder) has(id relation.EventID) bool {
	return int(id) >= 0 && int(id) < len(b.events)
}

// producers returns how many registered writes to the address slot store
// val, and the first of them.
func (b *Builder) producers(slot int32, val uint64) (relation.EventID, int) {
	a, events := b.addr(slot), b.x.events
	if !a.sorted {
		a.sorted, a.valStart = true, int32(len(b.byValue))
		b.byValue = append(b.byValue, b.seqs[a.seqStart:a.seqStart+a.writes]...)
		slices.SortFunc(b.byValue[a.valStart:], func(p, q relation.EventID) int {
			if c := cmp.Compare(events[p].Value, events[q].Value); c != 0 {
				return c
			}
			return cmp.Compare(p, q)
		})
	}
	writes := b.byValue[a.valStart : a.valStart+a.writes]
	lo, _ := slices.BinarySearchFunc(writes, val, func(id relation.EventID, val uint64) int {
		return cmp.Compare(events[id].Value, val)
	})
	n := 0
	for lo+n < len(writes) && events[writes[lo+n]].Value == val {
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return writes[lo], n
}

// Build wires coherence order and read-from, validates the execution,
// and returns it. Unpinned reads resolve by value: 0 reads the initial
// write; any other value must match exactly one write to the address
// (ambiguous or unproduced values are errors). Build consumes the
// builder until the next Reset.
func (b *Builder) Build() (*Execution, error) {
	if b.done {
		return nil, fmt.Errorf("memmodel: builder: Build called twice")
	}
	b.done = true
	if b.err != nil {
		return nil, b.err
	}
	x := b.x
	// The program's events: initial writes created below come after them
	// and are neither ordered nor resolved here.
	events := x.Events()

	// Lay out each address's writes in registration order, and have the
	// execution make room for each coherence order: the writes, plus the
	// initial write a read may yet create.
	b.room = b.room[:0]
	var start int32
	for s := range x.addrTab {
		a := b.addr(int32(s))
		a.seqStart, start = start, start+a.writes
		b.room = append(b.room, a.writes+1)
	}
	b.seqs = slices.Grow(b.seqs[:0], int(start))[:start]
	for i := range events {
		if events[i].IsWrite() {
			a := &b.addrs[x.links[i].addr]
			b.seqs[a.seqStart+a.seqFilled] = relation.EventID(i)
			a.seqFilled++
		}
	}
	x.ReserveCO(b.room)

	// Coherence order first (the recorder's order too), address by
	// address in first-write order: initial writes created during rf
	// resolution prepend themselves co-minimally.
	for i := range events {
		if !events[i].IsWrite() {
			continue
		}
		a := &b.addrs[x.links[i].addr]
		if a.coDone {
			continue
		}
		a.coDone = true
		order := b.seqs[a.seqStart : a.seqStart+a.writes]
		if a.overridden {
			order = b.overrides[a.ovStart:a.ovEnd]
		}
		for _, w := range order {
			if err := x.AppendCO(w); err != nil {
				return nil, fmt.Errorf("memmodel: builder: %v", err)
			}
		}
	}

	// Read-from: pins first, then value resolution for the rest.
	for i := range events {
		e := &events[i]
		if !e.IsRead() {
			continue
		}
		var w relation.EventID
		switch pin := b.events[i].pin; {
		case pin == pinInit:
			w = x.InitWrite(e.Addr)
		case pin != noEvent:
			w = pin
		case e.Value == 0:
			w = x.InitWrite(e.Addr)
		default:
			var n int
			switch w, n = b.producers(x.links[i].addr, e.Value); n {
			case 1:
			case 0:
				return nil, fmt.Errorf(
					"memmodel: builder: read %v observes value %#x with no producing write (add an rf edge)", e, e.Value)
			default:
				return nil, fmt.Errorf(
					"memmodel: builder: read %v observes value %#x produced by %d writes (pin the rf edge)", e, e.Value, n)
			}
		}
		if err := x.SetRF(e.ID, w); err != nil {
			return nil, fmt.Errorf("memmodel: builder: %v", err)
		}
	}

	if err := x.Validate(); err != nil {
		return nil, fmt.Errorf("memmodel: builder: %v", err)
	}
	// Answer Threads and Addresses once here, so goroutines sharing the
	// built execution only ever read it.
	x.Threads()
	x.Addresses()
	return x, nil
}

// MustBuild is Build panicking on error — for tests and generators
// whose inputs are statically well-formed.
func (b *Builder) MustBuild() *Execution {
	x, err := b.Build()
	if err != nil {
		panic(err)
	}
	return x
}
