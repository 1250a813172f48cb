package memmodel

import (
	"fmt"
	"slices"

	"repro/internal/memsys"
	"repro/internal/relation"
)

// Builder assembles candidate executions with validation, replacing the
// raw struct-literal construction that used to be scattered across
// tests and the litmus materializer. It also builds every trace the
// trace materializer cannot build from the trace's fields, so every
// construction path shares one set of well-formedness rules.
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
// Build returns it. A builder builds one execution, of its own, and
// Build returns it at most once.
//
// The builder is the reference for the trace materializer's direct
// route, not a measured path: its state is plain maps keyed by what the
// input names, and one rf pin per event.
type Builder struct {
	x    *Execution
	err  error
	done bool

	// nextInstr is each thread's running instruction index.
	nextInstr map[int]int
	// byKey holds the first event added with each key; dup is the first
	// event whose key an earlier one already carried, noEvent if none.
	byKey map[Key]relation.EventID
	dup   relation.EventID
	// pins[id] is read id's pinned source: noEvent when unpinned, pinInit
	// for the initial write.
	pins []relation.EventID
	// writes counts each address's registered writes; overrides holds
	// the coherence orders CO set.
	writes    map[memsys.Addr]int
	overrides map[memsys.Addr][]relation.EventID
}

const pinInit relation.EventID = -2

// NewBuilder returns an empty builder over a new execution.
func NewBuilder() *Builder {
	return &Builder{
		x:         NewExecution(),
		nextInstr: map[int]int{},
		byKey:     map[Key]relation.EventID{},
		dup:       noEvent,
		writes:    map[memsys.Addr]int{},
		overrides: map[memsys.Addr][]relation.EventID{},
	}
}

// fail records the first error; later calls keep the original.
func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf("memmodel: builder: "+format, args...)
	}
}

// Err returns the first recorded error, if any.
func (b *Builder) Err() error { return b.err }

func (b *Builder) autoKey(tid int) Key {
	n := b.nextInstr[tid]
	b.nextInstr[tid] = n + 1
	return Key{TID: tid, Instr: n}
}

// add appends e to the execution and to the builder's key index. An
// event the caller has just refused is appended all the same: the
// builder is poisoned, so the execution never leaves it, and the key
// bookkeeping (Lookup, DuplicateKey) goes on seeing every call.
func (b *Builder) add(e Event) relation.EventID {
	id := b.x.AddEvent(e)
	if _, seen := b.byKey[e.Key]; !seen {
		b.byKey[e.Key] = id
	} else if b.dup == noEvent {
		b.dup = id
	}
	b.pins = append(b.pins, noEvent)
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
	return b.add(Event{Key: key, Kind: KindRead, Addr: addr, Value: val, Atomic: atomic})
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
	b.writes[addr]++
	return b.add(Event{Key: key, Kind: KindWrite, Addr: addr, Value: val, Atomic: atomic})
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

// Lookup returns the event carrying key — the first added, should
// several carry it.
func (b *Builder) Lookup(key Key) (relation.EventID, bool) {
	id, ok := b.byKey[key]
	return id, ok
}

// DuplicateKey reports whether two events share a key, returning the key
// of the first event added that repeats an earlier one's. The builder
// itself tolerates duplicates (Lookup answers with the first); callers
// whose keys are identities check.
func (b *Builder) DuplicateKey() (Key, bool) {
	if b.dup == noEvent {
		return Key{}, false
	}
	return b.x.events[b.dup].Key, true
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
	if b.pins[r] != noEvent {
		b.fail("read %v has two rf edges", re)
		return
	}
	b.pins[r] = w
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
	if b.pins[r] != noEvent {
		b.fail("read %v has two rf edges", re)
		return
	}
	b.pins[r] = pinInit
}

// CO overrides the coherence order of addr with the given writes. Every
// registered write to addr must appear exactly once; the initial write
// (if later created by rf resolution) stays implicitly co-minimal and
// must not be listed. The builder copies writes.
func (b *Builder) CO(addr memsys.Addr, writes ...relation.EventID) {
	if _, set := b.overrides[addr]; set {
		b.fail("coherence order of %v set twice", addr)
		return
	}
	listed := make(map[relation.EventID]bool, len(writes))
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
		if listed[w] {
			b.fail("CO(%v) lists write %v twice", addr, we)
			return
		}
		listed[w] = true
	}
	if len(writes) != b.writes[addr] {
		b.fail("CO(%v) lists %d writes, %d registered", addr, len(writes), b.writes[addr])
		return
	}
	b.overrides[addr] = slices.Clone(writes)
}

// has reports whether id is an event the builder added (the initial
// writes Build creates are the execution's alone).
func (b *Builder) has(id relation.EventID) bool {
	return int(id) >= 0 && int(id) < len(b.pins)
}

// addrValue names the writes to one address that store one value.
type addrValue struct {
	addr  memsys.Addr
	value uint64
}

// producers is what value resolution knows of an addrValue's writes:
// the first of them and how many there are.
type producers struct {
	first relation.EventID
	n     int
}

// Build wires coherence order and read-from, validates the execution,
// and returns it. Unpinned reads resolve by value: 0 reads the initial
// write; any other value must match exactly one write to the address
// (ambiguous or unproduced values are errors). Build consumes the
// builder.
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

	// Each address's writes in registration order, the addresses in
	// first-write order, and the writes by value.
	var addrs []memsys.Addr
	registered := map[memsys.Addr][]relation.EventID{}
	byValue := map[addrValue]producers{}
	for i := range events {
		e := &events[i]
		if !e.IsWrite() {
			continue
		}
		if _, seen := registered[e.Addr]; !seen {
			addrs = append(addrs, e.Addr)
		}
		registered[e.Addr] = append(registered[e.Addr], e.ID)
		k := addrValue{e.Addr, e.Value}
		p, seen := byValue[k]
		if !seen {
			p.first = e.ID
		}
		p.n++
		byValue[k] = p
	}

	// Coherence order first (the recorder's order too), address by
	// address in first-write order: initial writes created during rf
	// resolution prepend themselves co-minimally.
	for _, a := range addrs {
		order, overridden := b.overrides[a]
		if !overridden {
			order = registered[a]
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
		switch pin := b.pins[i]; {
		case pin == pinInit, pin == noEvent && e.Value == 0:
			w = x.InitWrite(e.Addr)
		case pin != noEvent:
			w = pin
		default:
			switch p := byValue[addrValue{e.Addr, e.Value}]; p.n {
			case 1:
				w = p.first
			case 0:
				return nil, fmt.Errorf(
					"memmodel: builder: read %v observes value %#x with no producing write (add an rf edge)", e, e.Value)
			default:
				return nil, fmt.Errorf(
					"memmodel: builder: read %v observes value %#x produced by %d writes (pin the rf edge)", e, e.Value, p.n)
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
