// Package coherence implements the two cache-coherence protocols under
// study (§5.3): a two-level directory MESI modeled after gem5 Ruby's
// MESI_Two_Level, and TSO-CC, a lazy consistency-directed protocol that
// deliberately violates the Single-Writer–Multiple-Reader invariant.
//
// Both protocols are table-driven state machines: every (state, event)
// pair a controller can legally process is an entry in an explicit
// transition table. This mirrors Ruby's generated controllers and gives
// three properties the framework depends on:
//
//  1. structural transition coverage — the fitness signal of §3.2 — is
//     exact: the denominator is the table size, the numerator the
//     distinct entries exercised;
//  2. an arriving event with no table entry is an *invalid transition*,
//     reported through the ErrorSink exactly like Ruby aborts on the
//     MESI+PUTX-Race bug;
//  3. protocols are functionally accurate: data values move through the
//     caches, so stale data from a protocol bug corrupts functional
//     execution (§5.1).
package coherence

import (
	"fmt"

	"repro/internal/interconnect"
	"repro/internal/memsys"
	"repro/internal/sim"
)

// TransitionID is the dense index of a transition in its protocol's
// vocabulary (MESITransitions, TSOCCTransitions). It aliases uint32 (as
// does the coverage package's TransitionID) so sinks satisfy
// CoverageSink structurally without an import in either direction.
type TransitionID = uint32

// CoverageSink receives one record per executed protocol transition.
// Identical controllers are not distinguished (§3.2: "we do not
// distinguish between identical controllers, and instead consider the
// sum of their transitions"): every controller of a kind records from
// the one lattice numbered at package init.
type CoverageSink interface {
	RecordID(id TransitionID)
}

// ErrorSink receives protocol-level failures: invalid transitions and
// data-integrity violations detected by the protocol machinery itself.
type ErrorSink interface {
	ProtocolError(err error)
}

// errorSink returns errs, or the panicking default for nil.
func errorSink(errs ErrorSink) ErrorSink {
	if errs == nil {
		return PanicErrors{}
	}
	return errs
}

// NopCoverage discards coverage records.
type NopCoverage struct{}

// RecordID implements CoverageSink.
func (NopCoverage) RecordID(TransitionID) {}

// PanicErrors panics on protocol errors; useful in tests.
type PanicErrors struct{}

// ProtocolError implements ErrorSink.
func (PanicErrors) ProtocolError(err error) { panic(err) }

// ReqKind classifies a CPU operation handed to an L1.
type ReqKind uint8

// CPU operation kinds.
const (
	ReqLoad ReqKind = iota
	ReqStore
	// ReqAtomic is a locked exchange: it stores Val at the coherence
	// point and completes with the old value.
	ReqAtomic
	// ReqFlush evicts the line (clflush).
	ReqFlush
)

// Request is one CPU operation in flight at an L1 (an MSHR slot). The
// issuer owns the record and recycles it: from Issue until Done fires
// the cache holds the only live reference and the issuer must leave the
// record alone; once Done has been called the cache never touches it
// again, so Done may hand it straight to a free list.
type Request struct {
	Kind ReqKind
	// Addr is the word address.
	Addr memsys.Addr
	// Val is the value a store or atomic writes.
	Val uint64
	// Tag and Aux are the issuer's words, opaque to the cache (the same
	// idiom as sim.ScheduleEvent's arg/aux): the core keeps the program
	// slot and the generations that invalidate stale completions there.
	Tag, Aux uint64
	// Done fires when the operation performs in the memory system:
	//
	//   - a load completes synchronously at its perform point with the
	//     loaded value; invalidated=true means the line was invalidated
	//     concurrently with the fill (the IS_I "use data once" path) and
	//     the LQ must treat the load as immediately invalidated;
	//   - a store completes when it is written into the cache at the
	//     coherence point — its serialization (co) point;
	//   - an atomic completes likewise, val carrying the old value;
	//   - a flush completes once the line has left the cache.
	Done func(r *Request, val uint64, invalidated bool)

	// next chains requests coalesced on one transient line.
	next *Request
}

// requestDone is the completion event of stores, atomics and flushes:
// the request travels as arg, the old value as aux.
var requestDone sim.Handler = func(arg any, aux uint64) {
	r := arg.(*Request)
	r.Done(r, aux, false)
}

// reqQueue is the FIFO of requests deferred on one transient line,
// linked through the requests themselves.
type reqQueue struct{ head, tail *Request }

func (q *reqQueue) empty() bool { return q.head == nil }

func (q *reqQueue) push(r *Request) {
	r.next = nil
	if q.tail == nil {
		q.head = r
	} else {
		q.tail.next = r
	}
	q.tail = r
}

func (q *reqQueue) pushFront(r *Request) {
	r.next = q.head
	q.head = r
	if q.tail == nil {
		q.tail = r
	}
}

// replay empties the queue, scheduling every request through h (a
// controller's cpuOp handler) in FIFO order.
func (q *reqQueue) replay(s *sim.Sim, h sim.Handler) {
	r := q.head
	*q = reqQueue{}
	for r != nil {
		next := r.next
		r.next = nil
		s.ScheduleEvent(0, h, r, 0)
		r = next
	}
}

// CacheL1 is the interface the core model uses to talk to its private L1
// regardless of protocol.
type CacheL1 interface {
	// Issue hands one CPU operation to the cache; r.Done reports its
	// completion (see Request).
	Issue(r *Request)
	// Acquire applies a fence's acquire side at the cache, making
	// writes that serialized before the fence visible to po-later
	// loads. Lazily-coherent protocols (TSO-CC) self-invalidate their
	// stale Shared lines — the same action their RMWs perform; eagerly
	// invalidating protocols need no action. The core invokes it when
	// committing full and load-load fences.
	Acquire()
	// SetInvalListener registers the LQ notification hook: it is
	// invoked with a line address whenever the protocol (correctly)
	// forwards an invalidation of that line to the core. The studied
	// LQ bugs suppress exactly these calls in specific states.
	SetInvalListener(fn func(line memsys.Addr))
	// ResetCaches invalidates all lines without traffic, used by
	// reset_test_mem between test executions (§4, Table 1).
	ResetCaches()
}

// Node numbering: cores own NodeIDs [0, cores); L2 tiles [64, 64+tiles);
// the memory controller is node 128.
const (
	l2NodeBase = 64
	// MemNode is the memory controller's network node.
	MemNode interconnect.NodeID = 128
)

// L1Node returns the network node of core i's L1.
func L1Node(core int) interconnect.NodeID { return interconnect.NodeID(core) }

// L2Node returns the network node of L2 tile t.
func L2Node(tile int) interconnect.NodeID { return interconnect.NodeID(l2NodeBase + tile) }

// TileOf maps a line address to its home L2 tile: consecutive lines
// interleave across tiles (NUCA), which together with the 1MB partition
// separation makes same-offset lines of different partitions collide on
// one tile and one set — the L2 conflict-eviction driver of §5.2.1.
func TileOf(addr memsys.Addr, tiles int) int {
	return int(uint64(addr) / memsys.LineSize % uint64(tiles))
}

// MsgType enumerates all message types of both protocols.
type MsgType uint8

// Message types. The MESI set mirrors MESI_Two_Level's virtual channels;
// the TSO-CC set carries timestamp metadata.
const (
	// Requests (VNetRequest).
	MsgGETS MsgType = iota
	MsgGETX
	MsgPUTS // S replacement notice (no data)
	MsgPUTE // clean owner replacement (no data)
	MsgPUTX // dirty owner writeback (data)
	MsgUnblock
	// Responses (VNetResponse).
	MsgDataS    // shared data (no unblock expected)
	MsgDataSB   // shared data, directory blocked (unblock expected)
	MsgDataE    // exclusive clean data
	MsgDataM    // data with ack count for GETX
	MsgInvAck   // invalidation ack (to requestor or L2)
	MsgWBAck    // writeback ack
	MsgPutStale // the PUT raced with a forward; treated as handled
	MsgWBData   // owner's data copy to L2 on FwdGETS
	MsgRecallData
	MsgRecallAck
	MsgRecallStale
	MsgMemData
	// Forwards (VNetForward).
	MsgInv
	MsgFwdGETS
	MsgFwdGETX
	MsgRecall
	// Memory controller.
	MsgMemRead
	MsgMemWrite
	// TSO-CC messages.
	MsgTGetS
	MsgTGetX
	MsgTData     // data + timestamp metadata
	MsgTDataEx   // exclusive grant
	MsgTWB       // owner writeback (replacement or flush)
	MsgTFetch    // L2 asks owner for current data (owner downgrades)
	MsgTFetchInv // L2 asks owner for data and full invalidation
	MsgTFetchAck // owner's response to TFetch/TFetchInv
	MsgTWBAck
	MsgTTsReset // timestamp reset broadcast

	numMsgTypes
)

var msgNames = map[MsgType]string{
	MsgGETS: "GETS", MsgGETX: "GETX", MsgPUTS: "PUTS", MsgPUTE: "PUTE",
	MsgPUTX: "PUTX", MsgUnblock: "Unblock", MsgDataS: "DataS",
	MsgDataSB: "DataSB", MsgDataE: "DataE", MsgDataM: "DataM",
	MsgInvAck: "InvAck", MsgWBAck: "WBAck", MsgPutStale: "PutStale",
	MsgWBData: "WBData", MsgRecallData: "RecallData",
	MsgRecallAck: "RecallAck", MsgRecallStale: "RecallStale",
	MsgMemData: "MemData", MsgInv: "Inv", MsgFwdGETS: "FwdGETS",
	MsgFwdGETX: "FwdGETX", MsgRecall: "Recall", MsgMemRead: "MemRead",
	MsgMemWrite: "MemWrite", MsgTGetS: "TGetS", MsgTGetX: "TGetX",
	MsgTData: "TData", MsgTDataEx: "TDataEx", MsgTWB: "TWB",
	MsgTFetch: "TFetch", MsgTFetchInv: "TFetchInv",
	MsgTFetchAck: "TFetchAck", MsgTWBAck: "TWBAck",
	MsgTTsReset: "TTsReset",
}

func (t MsgType) String() string {
	if s, ok := msgNames[t]; ok {
		return s
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// Msg is a coherence message. Fields are used per message type. They
// are laid out widest first: every send copies a whole message into its
// pool slot, padding included.
type Msg struct {
	// Addr is the line address.
	Addr memsys.Addr
	// Src is the sending node.
	Src interconnect.NodeID
	// Requestor is the core whose request caused this message.
	Requestor int
	// AckTo is where invalidation acks must be sent.
	AckTo interconnect.NodeID
	// AckCount is the number of invalidation acks the requestor must
	// collect before its GETX completes.
	AckCount int
	// Ts, Epoch, Writer carry TSO-CC timestamp metadata.
	Writer    int
	Ts, Epoch uint32
	// Data carries line data where applicable, inline: a message is one
	// pooled object, not a header plus a line copy.
	Data memsys.LineData
	// next links the pool's free list.
	next *Msg

	Type MsgType
	// Dirty marks data newer than memory.
	Dirty bool
	// Dropped marks an Unblock from a requestor that did NOT retain the
	// line: its copy was invalidated while the data was in flight
	// (IS_I), so the directory must not record it as owner or sharer.
	// Without it the L2 believes a core owns a line the core already
	// discarded, and the next forwarded request to that core can never
	// be answered — a wedge that manifests as an MT_SB recycle livelock.
	Dropped bool
	// held marks a delivered message its consumer queued again (a
	// recycled request, a retried fetch): release leaves it in flight.
	held bool
}

// MsgPool recycles the coherence messages of one machine. A message is
// taken by its sender and released by its consumer once Deliver (or the
// access-latency event behind it) has finished with it — the discipline
// the sim kernel's event freelist uses — so steady-state traffic
// allocates nothing. Like the simulator it serves, a pool is
// single-threaded. Messages still in flight when a run is cut short are
// simply left to the garbage collector.
type MsgPool struct{ free *Msg }

// NewMsgPool returns an empty pool; a machine shares one between all its
// controllers.
func NewMsgPool() *MsgPool { return &MsgPool{} }

// alloc returns a pooled message initialized to *v.
func (p *MsgPool) alloc(v *Msg) *Msg {
	m := p.free
	if m == nil {
		m = new(Msg)
	} else {
		p.free = m.next
	}
	*m = *v
	return m
}

// requeue marks m as delivered again by its own consumer.
func (m *Msg) requeue() *Msg {
	m.held = true
	return m
}

// release returns a consumed message to the pool, unless its consumer
// queued it again.
func (p *MsgPool) release(m *Msg) {
	if m.held {
		m.held = false
		return
	}
	m.next = p.free
	p.free = m
}

func (m *Msg) String() string {
	return fmt.Sprintf("%s[%s req=%d acks=%d dirty=%v]", m.Type, m.Addr, m.Requestor, m.AckCount, m.Dirty)
}

// InvalidTransitionError is raised when a controller receives an event
// its table has no entry for — the Ruby-style fatal protocol error that
// the MESI+PUTX-Race bug manifests as.
type InvalidTransitionError struct {
	Controller string
	State      string
	Event      string
	Addr       memsys.Addr
}

func (e *InvalidTransitionError) Error() string {
	return fmt.Sprintf("coherence: invalid transition: %s in state %s on event %s (line %s)",
		e.Controller, e.State, e.Event, e.Addr)
}
