// Package trace defines the external execution-trace interchange format
// that makes the checker usable as an oracle: simulators and silicon
// harnesses outside this repository dump candidate executions as traces,
// and cmd/check (through the public oracle package) decides them against
// the axiomatic models without the producer importing any internal
// package.
//
// A trace is the canonical shape of a candidate execution — per-thread
// op lists in program order plus the observed conflict orders — i.e.
// exactly the information collective.Signature hashes. Two encodings
// carry it:
//
//   - a line-oriented text format (text.go), versioned by a "mctrace 1"
//     header, designed to be written by hand and by non-Go tooling;
//   - a compact binary framing (binary.go), versioned by a "MCVB" magic,
//     for high-volume replay dumps.
//
// Both encodings round-trip losslessly: decode(encode(x)) reproduces an
// execution with the same collective signature (event keys are carried
// explicitly whenever they differ from their positional defaults, so
// RMW pairing and signature identity survive), and encode(decode(t))
// is byte-identical for canonically encoded traces.
//
// A trace in that canonical shape — threads in TID order, one rf edge
// per read in program order, a co order per written address in address
// order — is signed from its own fields (Materializer.Sign), to the same
// 128 bits collective.Signature gives the execution it builds, without
// building it, and is built from them too, with no memmodel.Builder.
// Any other trace is signed through its execution, which the Builder
// builds.
//
// The two formats carry exactly the same traces: both encoders refuse,
// and both decoders reject, a trace the other format could not carry
// (Trace.encodable states the rule). Text decoding errors name their
// line; binary ones the trace and the byte offset they were met at.
//
// Both decoders bound a trace by the same ceilings — name length,
// element counts, int-typed fields. The int-typed fields (thread IDs,
// key pins, refs) are int32 in a decoded trace, exactly the [0, 2³¹)
// the formats carry: a decoder rejects a larger value before it narrows
// it. With an Op's four one-byte fields in one word, a decoded canonical
// trace takes about 77 bytes per op. A text line may run to 4 MiB; past
// the header a longer one is read while it holds no more fields than a
// co order of the largest count plus its keyword and address, at an
// average of at most 64 bytes a field, so a co order of millions of
// writes is one line and a line that never ends fails once it breaks
// that rule. An address or value may be spelled any way strconv base 0
// reads (0o17, 0b101, 1_000, ...), though the encoder writes only hex
// addresses and decimal values and the text decoder reads those
// spellings fastest.
package trace

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"unicode"

	"repro/internal/collective"
	"repro/internal/memmodel"
	"repro/internal/memsys"
	"repro/internal/relation"
)

// FormatVersion is the trace format version both encodings carry.
// Decoders reject any other version rather than guessing.
const FormatVersion = 1

// OpKind classifies a trace op.
type OpKind uint8

const (
	// OpRead is a load observing Value.
	OpRead OpKind = iota
	// OpWrite is a store of Value.
	OpWrite
	// OpFence is a standalone fence of flavour Fence.
	OpFence
	// OpRMW is an atomic read-modify-write reading Value and writing
	// Value2; it expands to a read and a write event sharing one
	// instruction slot (subs 0 and 1), both atomic.
	OpRMW

	numOpKinds
)

func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "r"
	case OpWrite:
		return "w"
	case OpFence:
		return "f"
	case OpRMW:
		return "u"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// Op is one instruction-level step of a thread's program, in program
// order. Event keys default to the op's position (running instruction
// index, sub 0); Keyed pins an explicit (Instr, Sub) for traces whose
// producers number instructions sparsely or pair RMW halves manually —
// keys feed collective.Signature, so preserving them preserves verdict
// identity across encode/decode.
//
// The key fields are int32, the range both formats carry, and the four
// one-byte fields share a word, so an Op is 40 bytes on 64-bit hosts.
type Op struct {
	// Kind is the op class.
	Kind OpKind `json:"kind"`
	// Fence is the fence flavour for OpFence.
	Fence memmodel.FenceKind `json:"fence,omitempty"`
	// Atomic marks a plain read or write as an RMW half for producers
	// that pair halves via explicit keys instead of OpRMW.
	Atomic bool `json:"atomic,omitempty"`
	// Keyed marks Instr/Sub as explicit; when false the key is
	// positional.
	Keyed bool `json:"keyed,omitempty"`
	// Instr is the explicit instruction index when Keyed.
	Instr int32 `json:"instr,omitempty"`
	// Sub is the explicit sub-event number when Keyed (OpRMW ignores
	// it: the pair always takes subs 0 and 1).
	Sub int32 `json:"sub,omitempty"`
	// Addr is the word address accessed (unused for fences).
	Addr memsys.Addr `json:"addr,omitempty"`
	// Value is the value read (OpRead, OpRMW) or written (OpWrite).
	Value uint64 `json:"value,omitempty"`
	// Value2 is the value written by an OpRMW.
	Value2 uint64 `json:"value2,omitempty"`
}

// Ref names an event by its stable key — the external form of
// memmodel.Key. Initial writes are never referenced by Ref; rf edges
// use RFEdge.Init and co orders list only program writes (the initial
// write is implicitly co-minimal). Its fields are int32, the range both
// formats carry; key and refOf convert to and from memmodel.Key.
type Ref struct {
	TID   int32 `json:"tid"`
	Instr int32 `json:"instr"`
	Sub   int32 `json:"sub,omitempty"`
}

func (r Ref) String() string { return string(appendRef(nil, r)) }

// key is the memmodel.Key r names.
func (r Ref) key() memmodel.Key {
	return memmodel.Key{TID: int(r.TID), Instr: int(r.Instr), Sub: int(r.Sub)}
}

// refOf is the Ref naming k, whose fields the caller has checked are in
// [0, maxIntField): refOf narrows them without a check.
func refOf(k memmodel.Key) Ref {
	return Ref{TID: int32(k.TID), Instr: int32(k.Instr), Sub: int32(k.Sub)}
}

// RFEdge is one observed read-from edge: Read observed Write's value,
// or the initial value when Init. Reads without an explicit edge
// resolve by value at Execution time (0 reads the initial write, any
// other value must match exactly one write to the address).
type RFEdge struct {
	Read  Ref  `json:"read"`
	Write Ref  `json:"write,omitzero"`
	Init  bool `json:"init,omitempty"`
}

// COOrder is the observed coherence order of one address: every
// program write to Addr, oldest first. The initial write is implicit
// and co-minimal. Addresses without a COOrder default to per-thread
// program order of their writes, in thread declaration order — only
// unambiguous for single-writer addresses, so canonical encoders emit
// a COOrder for every written address.
type COOrder struct {
	Addr   memsys.Addr `json:"addr"`
	Writes []Ref       `json:"writes"`
}

// Thread is one thread's program slice in program order.
type Thread struct {
	TID int32 `json:"tid"`
	Ops []Op  `json:"ops"`
}

// Trace is one candidate execution in interchange form.
//
// A Trace is read-only once checked: the first Signature call remembers
// the trace's signature, and every later call — from any goroutine, for
// any model — answers with it. A trace edited after that would be looked
// up under the identity of the trace it was. Next to the signature a
// trace remembers the strongest model it was decided valid under
// (ProvedValid), which answers for every weaker model.
type Trace struct {
	// Name labels the trace in verdicts (optional).
	Name    string    `json:"name,omitempty"`
	Threads []Thread  `json:"threads"`
	RF      []RFEdge  `json:"rf,omitempty"`
	CO      []COOrder `json:"co,omitempty"`

	id identity
}

// identity is a trace's signature once computed: mu serializes the call
// computing it, done publishes sig and its spelling hex to calls that
// never take mu. valid is one more than the position in memmodel.Names()
// of the strongest model the trace was decided valid under, 0 while it
// has been under none; it only ever moves to a stronger model.
type identity struct {
	mu    sync.Mutex
	done  atomic.Bool
	sig   collective.Sig
	hex   string
	valid atomic.Int32
}

// Signature returns the canonical signature of t's execution —
// collective.Signature of what Execution builds — computing it at most
// once across all goroutines. The call that computes it runs sign,
// which chooses how: from t's fields (Materializer.Sign), or by
// materializing t and signing the execution, which it then returns, and
// so does Signature; every other call returns a nil execution.
// Concurrent callers wait for the computing call instead of repeating
// it: sign runs under the trace's lock, as sync.Once runs its function,
// so it must not ask t for its signature. Errors are not remembered: the
// next call runs sign again and meets the same error, so a malformed
// trace answers every caller alike. A signature is remembered even for
// a malformed trace of the canonical shape, which Sign signs without
// building it; every check of such a trace still errors, since deciding
// it means materializing it.
func (t *Trace) Signature(sign func(*Trace) (collective.Sig, *memmodel.Execution, error)) (collective.Sig, *memmodel.Execution, error) {
	id := &t.id
	if id.done.Load() {
		return id.sig, nil, nil
	}
	id.mu.Lock()
	defer id.mu.Unlock()
	if id.done.Load() {
		return id.sig, nil, nil
	}
	sig, x, err := sign(t)
	if err != nil {
		return collective.Sig{}, nil, err
	}
	id.sig, id.hex = sig, sig.String()
	id.done.Store(true)
	return sig, x, nil
}

// SignatureString is the signature Signature remembered, spelled as
// Sig.String spells it: one string for every verdict on t. It is ""
// until a Signature call has succeeded.
func (t *Trace) SignatureString() string {
	if !t.id.done.Load() {
		return ""
	}
	return t.id.hex
}

// ProvedValid records that t's execution was decided valid under the
// model at position model of memmodel.Names(), strongest first. The
// models form a chain, each allowing everything the ones before it
// allow, so the record stands for every model after it too; a call
// naming a weaker model than the one recorded changes nothing. Safe
// for concurrent use.
func (t *Trace) ProvedValid(model int) {
	v := int32(model) + 1
	for {
		cur := t.id.valid.Load()
		if cur != 0 && cur <= v || t.id.valid.CompareAndSwap(cur, v) {
			return
		}
	}
}

// ValidUnder reports whether t's execution was recorded valid (see
// ProvedValid) under the model at position model of memmodel.Names() or
// under a stronger one — and so is valid under that model.
func (t *Trace) ValidUnder(model int) bool {
	cur := t.id.valid.Load()
	return cur != 0 && int(cur) <= model+1
}

// key computes the effective memmodel.Key of op i given the thread's
// running instruction counter, returning the key and the updated
// counter. The rule is shared by the decoder (assigning keys) and the
// encoder (detecting when an explicit key is needed): positional ops
// take (next, 0) and advance by one; keyed ops take their pinned key
// and advance the counter past it.
func (o *Op) key(tid int32, next int) (memmodel.Key, int) {
	if o.Keyed {
		k := memmodel.Key{TID: int(tid), Instr: int(o.Instr), Sub: int(o.Sub)}
		if o.Kind == OpRMW {
			k.Sub = 0
		}
		if k.Instr >= next {
			next = k.Instr + 1
		}
		return k, next
	}
	return memmodel.Key{TID: int(tid), Instr: next}, next + 1
}

// Execution materializes the trace as a candidate execution with
// memmodel.Builder's well-formedness rules: explicit rf/co observations
// are pinned, everything else resolves by value and registration order.
// Events are added thread-major in declaration order, so decoding the
// same trace always yields byte-identical executions. The execution is built in storage of its own and belongs
// to the caller; a Materializer is the variant that reuses storage.
func (t *Trace) Execution() (*memmodel.Execution, error) {
	return new(Materializer).Execution(t)
}

// Materializer materializes and signs traces one after another in
// storage it keeps — one execution, and Sign's list of the addresses
// read from their initial writes — so a caller deciding a stream of
// traces allocates for the largest, not for each. A trace of the
// canonical shape is built straight into the kept execution (build);
// any other goes through a new memmodel.Builder, into an execution of
// the Builder's own: no benchmark workload sends one. The execution a
// call returns is only good until the next call: whoever needs to keep
// one uses Trace.Execution. The zero value is ready; a Materializer is
// single-goroutine.
type Materializer struct {
	x *memmodel.Execution
	// keys and room are build's: its events by key, and the room for
	// each address slot's coherence order.
	keys keyTable
	room []int32
	// addrs is Sign's: the addresses reads take from the initial write,
	// sorted through sortTmp.
	addrs, sortTmp []memsys.Addr
}

// Execution is Trace.Execution into the materializer's storage: the same
// execution event for event, the same errors. A trace of the canonical
// shape is built from its fields; any other, and a canonical one that
// fails a check, through the Builder, from scratch.
func (m *Materializer) Execution(t *Trace) (*memmodel.Execution, error) {
	if x, ok := m.build(t); ok {
		return x, nil
	}
	return viaBuilder(t)
}

// viaBuilder materializes t through a new memmodel.Builder: the route of
// every trace build does not take, and the reference build is tested
// against.
func viaBuilder(t *Trace) (*memmodel.Execution, error) {
	b := memmodel.NewBuilder()

	// Walk the threads up to the first malformed declaration or op. Event
	// keys are checked for duplicates after the walk, over the events it
	// added: a duplicate among them came before whatever stopped it.
	declared := make(map[int32]bool, len(t.Threads))
	var walkErr error
walk:
	for ti := range t.Threads {
		th := &t.Threads[ti]
		if declared[th.TID] {
			walkErr = fmt.Errorf("trace %s: thread %d declared twice", t.label(), th.TID)
			break
		}
		declared[th.TID] = true
		next := 0
		for i := range th.Ops {
			op := &th.Ops[i]
			var k memmodel.Key
			k, next = op.key(th.TID, next)
			switch op.Kind {
			case OpRead:
				b.ReadKeyed(k, op.Addr, op.Value, op.Atomic)
			case OpWrite:
				b.WriteKeyed(k, op.Addr, op.Value, op.Atomic)
			case OpFence:
				b.FenceKeyed(k, op.Fence)
			case OpRMW:
				b.ReadKeyed(k, op.Addr, op.Value, true)
				k.Sub = 1
				b.WriteKeyed(k, op.Addr, op.Value2, true)
			default:
				walkErr = fmt.Errorf("trace %s: thread %d op %d: unknown kind %d", t.label(), th.TID, i, op.Kind)
				break walk
			}
		}
	}
	if k, dup := b.DuplicateKey(); dup {
		return nil, fmt.Errorf("trace %s: duplicate event key %v", t.label(), refOf(k))
	}
	if walkErr != nil {
		return nil, walkErr
	}

	resolve := func(ref Ref, what string) (relation.EventID, error) {
		id, ok := b.Lookup(ref.key())
		if !ok {
			return 0, fmt.Errorf("trace %s: %s references unknown event %v", t.label(), what, ref)
		}
		return id, nil
	}
	for _, e := range t.RF {
		r, err := resolve(e.Read, "rf")
		if err != nil {
			return nil, err
		}
		if e.Init {
			b.SetRFInit(r)
			continue
		}
		w, err := resolve(e.Write, "rf")
		if err != nil {
			return nil, err
		}
		b.SetRF(r, w)
	}
	var writes []relation.EventID
	for _, c := range t.CO {
		writes = writes[:0]
		for _, ref := range c.Writes {
			w, err := resolve(ref, "co")
			if err != nil {
				return nil, err
			}
			writes = append(writes, w)
		}
		b.CO(c.Addr, writes...)
	}
	x, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("trace %s: %v", t.label(), err)
	}
	return x, nil
}

func (t *Trace) label() string {
	if t.Name == "" {
		return "(unnamed)"
	}
	return t.Name
}

// encodable says why the trace formats cannot carry t, or returns nil.
// Both encoders refuse such a trace, and both decoders reject its
// encoding, so a trace either decoder accepts re-encodes in either
// format and decodes back unchanged. The formats carry:
//
//   - a name of at most maxNameLen bytes with no white space and no '#'
//     (text spells it as one token of a line, and '#' opens a comment);
//   - at most maxCount threads, ops in a thread, rf edges, co orders and
//     writes in a co order, and at least one write in each co order;
//   - TIDs, key pins and refs in [0, maxIntField);
//   - ops r, w, f and u, fences full, ss and ll, the atomic flag on r
//     and w only, and no sub on a u op's key pin.
func (t *Trace) encodable() error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("trace: cannot encode trace %q: "+format, append([]any{t.Name}, args...)...)
	}
	if why := nameProblem(t.Name); why != "" {
		return fail("its name %s", why)
	}
	switch {
	case len(t.Threads) > maxCount:
		return fail("more than %d threads", maxCount)
	case len(t.RF) > maxCount:
		return fail("more than %d rf edges", maxCount)
	case len(t.CO) > maxCount:
		return fail("more than %d co orders", maxCount)
	}
	for _, th := range t.Threads {
		if !intField(th.TID) {
			return fail("thread id %d out of range [0, %d)", th.TID, maxIntField)
		}
		if len(th.Ops) > maxCount {
			return fail("thread %d has more than %d ops", th.TID, maxCount)
		}
		for i := range th.Ops {
			op := &th.Ops[i]
			switch {
			case op.Kind >= numOpKinds:
				return fail("thread %d op %d: unknown kind %d", th.TID, i, op.Kind)
			case op.Kind == OpFence && op.Fence >= memmodel.NumFenceKinds:
				return fail("thread %d op %d: unknown fence kind %d", th.TID, i, op.Fence)
			case op.Atomic && (op.Kind == OpFence || op.Kind == OpRMW):
				return fail("thread %d op %d: %s op marked atomic (the formats carry the flag on r and w only)", th.TID, i, op.Kind)
			case op.Keyed && !(intField(op.Instr) && intField(op.Sub)):
				return fail("thread %d op %d: key pin @%d.%d out of range [0, %d)", th.TID, i, op.Instr, op.Sub, maxIntField)
			case op.Keyed && op.Kind == OpRMW && op.Sub != 0:
				return fail("thread %d op %d: u op pinned to sub %d (the pair is always subs 0 and 1)", th.TID, i, op.Sub)
			}
		}
	}
	for _, e := range t.RF {
		if !refField(e.Read) || !e.Init && !refField(e.Write) {
			return fail("rf edge %v -> %v out of range [0, %d)", e.Read, e.Write, maxIntField)
		}
	}
	for _, c := range t.CO {
		switch {
		case len(c.Writes) == 0:
			return fail("co order of %#x has no writes", uint64(c.Addr))
		case len(c.Writes) > maxCount:
			return fail("co order of %#x has more than %d writes", uint64(c.Addr), maxCount)
		}
		for _, w := range c.Writes {
			if !refField(w) {
				return fail("co order of %#x: write %v out of range [0, %d)", uint64(c.Addr), w, maxIntField)
			}
		}
	}
	return nil
}

// intField reports whether v fits an int-typed field of the formats: an
// int32 is below maxIntField, so whether it is non-negative.
func intField(v int32) bool { return v >= 0 }

// keyField reports whether every field of k fits the formats, and so a
// Ref.
func keyField(k memmodel.Key) bool {
	return uint(k.TID) < maxIntField && uint(k.Instr) < maxIntField && uint(k.Sub) < maxIntField
}

// refField reports whether every field of r fits the formats.
func refField(r Ref) bool { return intField(r.TID) && intField(r.Instr) && intField(r.Sub) }

// nameProblem says why name cannot name a trace in the formats, or
// returns "": it must fit maxNameLen and be one token of a text line.
func nameProblem(name string) string {
	switch {
	case len(name) > maxNameLen:
		return fmt.Sprintf("is longer than %d bytes", maxNameLen)
	case strings.ContainsFunc(name, unicode.IsSpace):
		return "holds white space"
	case strings.Contains(name, "#"):
		return "holds '#'"
	}
	return ""
}

// FromExecution encodes a candidate execution as a canonical trace:
// threads in Threads() order, explicit keys only where they differ from
// positional defaults, adjacent atomic (read, write) pairs sharing an
// instruction collapsed to OpRMW, every rf edge explicit, and a COOrder
// for every address with at least one program write. Canonical traces
// re-encode byte-identically after a decode. An event whose key has a
// field outside [0, maxIntField) is an error: the formats cannot carry
// it, and a Ref could not hold it.
func FromExecution(name string, x *memmodel.Execution) (*Trace, error) {
	t := &Trace{Name: name}
	for _, tid := range x.Threads() {
		if tid == memmodel.InitTID {
			continue
		}
		ids := x.ThreadEvents(tid)
		th := Thread{TID: int32(tid)} // checked with its events' keys
		next := 0
		for i := 0; i < len(ids); i++ {
			e := x.Event(ids[i])
			if !keyField(e.Key) {
				return nil, fmt.Errorf("trace: event %v: key out of range [0, %d)", e, maxIntField)
			}
			// Collapse an RMW pair into one OpRMW when it matches the
			// canonical shape CheckAtomicity pairs on.
			if i+1 < len(ids) {
				w := x.Event(ids[i+1])
				if e.Atomic && w.Atomic && e.IsRead() && w.IsWrite() &&
					e.Key.Instr == w.Key.Instr && e.Addr == w.Addr &&
					e.Key.Sub == 0 && w.Key.Sub == 1 {
					op := Op{Kind: OpRMW, Addr: e.Addr, Value: e.Value, Value2: w.Value}
					if e.Key.Instr != next {
						op.Keyed, op.Instr = true, int32(e.Key.Instr)
					}
					_, next = op.key(th.TID, next)
					th.Ops = append(th.Ops, op)
					i++
					continue
				}
			}
			var op Op
			switch {
			case e.IsRead():
				op = Op{Kind: OpRead, Addr: e.Addr, Value: e.Value, Atomic: e.Atomic}
			case e.IsWrite():
				op = Op{Kind: OpWrite, Addr: e.Addr, Value: e.Value, Atomic: e.Atomic}
			case e.Kind == memmodel.KindFence:
				op = Op{Kind: OpFence, Fence: e.Fence}
			default:
				return nil, fmt.Errorf("trace: event %v has unknown kind", e)
			}
			if e.Key.Instr != next || e.Key.Sub != 0 {
				op.Keyed, op.Instr, op.Sub = true, int32(e.Key.Instr), int32(e.Key.Sub)
			}
			_, next = op.key(th.TID, next)
			th.Ops = append(th.Ops, op)
		}
		t.Threads = append(t.Threads, th)
	}

	ref := func(id relation.EventID) Ref { return refOf(x.Event(id).Key) }
	for _, tid := range x.Threads() {
		if tid == memmodel.InitTID {
			continue
		}
		for _, id := range x.ThreadEvents(tid) {
			e := x.Event(id)
			if !e.IsRead() {
				continue
			}
			w, ok := x.RF(id)
			if !ok {
				return nil, fmt.Errorf("trace: read %v has no rf edge", e)
			}
			edge := RFEdge{Read: ref(id)}
			if x.Event(w).IsInit() {
				edge.Init = true
			} else {
				edge.Write = ref(w)
			}
			t.RF = append(t.RF, edge)
		}
	}
	for _, addr := range x.Addresses() {
		var writes []Ref
		for _, id := range x.CO(addr) {
			if x.Event(id).IsInit() {
				continue
			}
			writes = append(writes, ref(id))
		}
		if len(writes) > 0 {
			t.CO = append(t.CO, COOrder{Addr: addr, Writes: writes})
		}
	}
	return t, nil
}
