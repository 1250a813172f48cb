package coherence

import (
	"fmt"

	"repro/internal/bugs"
	"repro/internal/interconnect"
	"repro/internal/memsys"
	"repro/internal/sim"
)

// l1State enumerates MESI L1 states, including the transient states whose
// races host the studied bugs (§5.3): IS (invalid, fetching for a load),
// ISI (IS with a sunk invalidation — data may be used once), IM (invalid,
// fetching for a store), SM (shared, upgrading), EI/MI (clean/dirty
// writeback in flight).
type l1State uint8

const (
	l1I l1State = iota
	l1S
	l1E
	l1M
	l1IS
	l1ISI
	l1IM
	l1SM
	l1EI
	l1MI
	// l1EIS/l1MIS: the L2 acknowledged our PUT as stale, meaning a
	// forwarded request raced with the writeback and still needs
	// serving from the retained data (the PutStale ack can overtake
	// the forward across virtual networks).
	l1EIS
	l1MIS
)

var l1StateNames = [...]string{
	"I", "S", "E", "M", "IS", "IS_I", "IM", "SM", "E_I", "M_I", "E_IS", "M_IS",
}

func (s l1State) String() string { return l1StateNames[s] }

func (s l1State) stable() bool { return s <= l1M }

// l1Event enumerates the inputs of the L1 state machine: CPU-side
// mandatory-queue events, the internal replacement event, and network
// messages.
type l1Event uint8

const (
	l1Load l1Event = iota
	l1Store
	l1Atomic
	l1Flush
	l1Replace
	l1Inv
	l1FwdGETS
	l1FwdGETX
	l1Recall
	l1DataS
	l1DataSB
	l1DataE
	l1DataM
	l1InvAck
	l1WBAck
	l1PutStale
)

var l1EventNames = [...]string{
	"Load", "Store", "Atomic", "Flush", "Replacement",
	"Inv", "Fwd_GETS", "Fwd_GETX", "Recall",
	"DataS", "DataSB", "DataE", "DataM", "InvAck", "WB_Ack", "PutStale",
}

func (e l1Event) String() string { return l1EventNames[e] }

// mesiL1Line is the per-line L1 state.
type mesiL1Line struct {
	state       l1State
	data        memsys.LineData
	pendingAcks int
	haveData    bool
	// servedFwd records that a forwarded request was served while the
	// line's writeback was in flight (E_I/M_I), so a later PutStale
	// completes the writeback instead of waiting for a forward.
	servedFwd bool
	primary   *Request
	deferred  reqQueue
}

// MESIL1 is one core's private L1 data cache controller.
type MESIL1 struct {
	id    int
	tiles int
	array *Array[mesiL1Line]
	sim   *sim.Sim
	net   *interconnect.Network
	msgs  *MsgPool
	bugs  bugs.Set
	// covRec is the interned coverage front end: every table entry's
	// TransitionID is pre-resolved when Reset binds the sink, so
	// recording is one RecordID call.
	covRec covRecorder
	errs   ErrorSink
	// absent stands in for the line of a message whose line is not
	// cached: such messages dispatch against state I (only ack-style
	// responses are legal) and must not retain the line.
	absent mesiL1Line

	// HitLatency is the L1 hit latency (Table 2: 3 cycles).
	HitLatency sim.Tick
	// RetryDelay spaces mandatory-queue retries when the target set has
	// no evictable way.
	RetryDelay sim.Tick

	// cpuOpH/cpuOpNowH are the controller's pre-bound hot callbacks:
	// every mandatory-queue access, retry and MSHR replay dispatches
	// through them on the kernel's zero-alloc path, with the pending
	// op as the event argument.
	cpuOpH    sim.Handler
	cpuOpNowH sim.Handler

	invalNotify func(line memsys.Addr)
}

// MESIL1Config configures an L1 controller.
type MESIL1Config struct {
	CoreID int
	Tiles  int
	// SizeBytes/Ways give the cache geometry (Table 2: 32KB, 4-way).
	SizeBytes, Ways int
	Bugs            bugs.Set
	Coverage        CoverageSink
	Errors          ErrorSink
	// Msgs is the machine's shared message pool; nil gives the
	// controller a private one.
	Msgs *MsgPool
}

// NewMESIL1 creates the controller and registers it on the network at the
// core's mesh position.
func NewMESIL1(s *sim.Sim, net *interconnect.Network, cfg MESIL1Config, row, col int) (*MESIL1, error) {
	sets, ways := GeomFor(cfg.SizeBytes, cfg.Ways)
	c := &MESIL1{
		id:          cfg.CoreID,
		tiles:       cfg.Tiles,
		array:       NewArray[mesiL1Line](sets, ways),
		sim:         s,
		net:         net,
		msgs:        cfg.Msgs,
		bugs:        cfg.Bugs,
		covRec:      newCovRecorder("L1Cache", l1StateNames[:], l1EventNames[:], mesiL1Keys),
		HitLatency:  3,
		RetryDelay:  8,
		invalNotify: func(memsys.Addr) {},
	}
	c.cpuOpH = func(arg any, _ uint64) { c.Issue(arg.(*Request)) }
	c.cpuOpNowH = func(arg any, _ uint64) { c.cpuOpNow(arg.(*Request)) }
	if c.msgs == nil {
		c.msgs = NewMsgPool()
	}
	c.Reset(cfg.Coverage, cfg.Errors)
	if err := net.Register(L1Node(cfg.CoreID), c, row, col); err != nil {
		return nil, err
	}
	return c, nil
}

// Reset returns the controller to its just-built state — the state the
// constructor leaves it in, which the constructor itself reaches through
// this call — reporting transitions to cov and protocol errors to errs
// from now on (nil discards and panics respectively). What the
// controller has allocated stays. Must only be called with no message or
// request of the controller in flight.
func (c *MESIL1) Reset(cov CoverageSink, errs ErrorSink) {
	c.covRec.bind(cov)
	c.errs = errorSink(errs)
	c.array.Reset()
}

// SetInvalListener implements CacheL1.
func (c *MESIL1) SetInvalListener(fn func(line memsys.Addr)) { c.invalNotify = fn }

// ResetCaches implements CacheL1.
func (c *MESIL1) ResetCaches() { c.array.Clear() }

// Acquire implements CacheL1. MESI invalidates eagerly — remote writes
// already invalidated any stale copy here — so a fence needs no cache
// action.
func (c *MESIL1) Acquire() {}

// Issue implements CacheL1: it pays the L1 tag/data access latency,
// then dispatches the CPU operation through the state machine
// (deferring into the MSHR when the line is transient). Processing after
// the latency keeps a load's value capture and completion atomic: there
// is no window in which a captured value can be invalidated before the
// LQ learns the load performed.
func (c *MESIL1) Issue(op *Request) {
	c.sim.ScheduleEvent(c.HitLatency, c.cpuOpNowH, op, 0)
}

func (c *MESIL1) cpuOpNow(op *Request) {
	lineAddr := op.Addr.LineAddr()
	line, ok := c.array.Lookup(lineAddr)
	if ok && !line.state.stable() {
		// The line has an operation in flight: coalesce. The op
		// replays once the line settles — with one exception: loads
		// hit in SM, which holds valid shared data (the SM,Inv bug
		// window needs performed loads from SM); those dispatch
		// through the (SM, Load) table entry below.
		if !(line.state == l1SM && op.Kind == ReqLoad) {
			line.deferred.push(op)
			return
		}
	}
	if !ok {
		// Allocate; may require a replacement.
		var retry bool
		line, retry = c.allocate(lineAddr, op)
		if line == nil {
			if retry {
				c.sim.ScheduleEvent(c.RetryDelay, c.cpuOpH, op, 0)
			}
			return
		}
	}
	c.dispatch(l1ReqEvent[op.Kind], lineAddr, line, nil, op)
}

// l1ReqEvent maps a CPU operation kind to its state-machine input.
var l1ReqEvent = [...]l1Event{ReqLoad: l1Load, ReqStore: l1Store, ReqAtomic: l1Atomic, ReqFlush: l1Flush}

// allocate makes room for lineAddr. A flush of an absent line completes
// immediately (nothing to flush); other ops get a fresh I line, possibly
// after evicting a stable victim. Returns (nil, true) when the caller
// must retry later, (nil, false) when the op completed inline.
func (c *MESIL1) allocate(lineAddr memsys.Addr, op *Request) (*mesiL1Line, bool) {
	if op.Kind == ReqFlush {
		// clflush of an uncached line is a no-op.
		c.sim.ScheduleEvent(c.HitLatency, requestDone, op, 0)
		return nil, false
	}
	if !c.array.HasFree(lineAddr) {
		vAddr, vLine, ok := c.array.Victim(lineAddr, mesiL1Evictable)
		if !ok {
			return nil, true // all ways transient: retry
		}
		c.dispatch(l1Replace, vAddr, vLine, nil, nil)
		if !c.array.HasFree(lineAddr) {
			return nil, true // victim entered a writeback state
		}
	}
	line := c.array.Insert(lineAddr)
	line.state = l1I
	return line, false
}

func mesiL1Evictable(l *mesiL1Line) bool { return l.state.stable() }

// Deliver implements interconnect.Handler.
func (c *MESIL1) Deliver(vnet interconnect.VNet, payload interface{}) {
	msg := payload.(*Msg)
	lineAddr := msg.Addr.LineAddr()
	line, ok := c.array.Peek(lineAddr)
	if !ok {
		c.absent = mesiL1Line{state: l1I}
		line = &c.absent
	}
	ev, ok := l1MsgEvent(msg.Type)
	if !ok {
		panic(fmt.Sprintf("mesi l1: unroutable message %s", msg))
	}
	c.dispatch(ev, lineAddr, line, msg, nil)
	c.msgs.release(msg)
}

func l1MsgEvent(t MsgType) (l1Event, bool) {
	switch t {
	case MsgInv:
		return l1Inv, true
	case MsgFwdGETS:
		return l1FwdGETS, true
	case MsgFwdGETX:
		return l1FwdGETX, true
	case MsgRecall:
		return l1Recall, true
	case MsgDataS:
		return l1DataS, true
	case MsgDataSB:
		return l1DataSB, true
	case MsgDataE:
		return l1DataE, true
	case MsgDataM:
		return l1DataM, true
	case MsgInvAck:
		return l1InvAck, true
	case MsgWBAck:
		return l1WBAck, true
	case MsgPutStale:
		return l1PutStale, true
	default:
		return 0, false
	}
}

// l1Ctx carries a transition's inputs; handlers take it by value so a
// dispatch allocates nothing.
type l1Ctx struct {
	addr memsys.Addr // line address
	line *mesiL1Line
	msg  *Msg
	op   *Request
}

type l1Handler func(c *MESIL1, x l1Ctx)

func (c *MESIL1) dispatch(ev l1Event, addr memsys.Addr, line *mesiL1Line, msg *Msg, op *Request) {
	h := mesiL1Table[line.state][ev]
	if h == nil {
		c.errs.ProtocolError(&InvalidTransitionError{
			Controller: "L1Cache",
			State:      line.state.String(),
			Event:      ev.String(),
			Addr:       addr,
		})
		return
	}
	c.covRec.record(int(line.state), int(ev))
	h(c, l1Ctx{addr: addr, line: line, msg: msg, op: op})
}

// --- helpers -------------------------------------------------------------

func (c *MESIL1) homeTile(addr memsys.Addr) interconnect.NodeID {
	return L2Node(TileOf(addr, c.tiles))
}

func (c *MESIL1) send(dst interconnect.NodeID, vnet interconnect.VNet, m Msg) {
	m.Src = L1Node(c.id)
	c.net.Send(L1Node(c.id), dst, vnet, c.msgs.alloc(m))
}

// notify forwards an invalidation of lineAddr to the LQ unless suppressed
// by the given bug flag — the §5.3 injection points.
func (c *MESIL1) notify(lineAddr memsys.Addr, suppressed bool) {
	if suppressed {
		return
	}
	c.invalNotify(lineAddr)
}

// completeLoad captures the value and completes the load synchronously:
// the capture is the load's perform point, so no invalidation can slip
// between capture and the LQ seeing the load as performed.
func (c *MESIL1) completeLoad(line *mesiL1Line, op *Request, invalidated bool) {
	op.Done(op, line.data.Word(op.Addr), invalidated)
}

// performStore writes the store at the coherence point (line must be M).
func (c *MESIL1) performStore(line *mesiL1Line, op *Request) {
	line.data.SetWord(op.Addr, op.Val)
	c.sim.ScheduleEvent(0, requestDone, op, 0)
}

func (c *MESIL1) performAtomic(line *mesiL1Line, op *Request) {
	old := line.data.Word(op.Addr)
	line.data.SetWord(op.Addr, op.Val)
	c.sim.ScheduleEvent(0, requestDone, op, old)
}

// settle replays MSHR-deferred operations after the line reaches a stable
// state (or is removed).
func (c *MESIL1) settle(line *mesiL1Line) {
	line.primary = nil
	line.deferred.replay(c.sim, c.cpuOpH)
}

// removeLine drops the array entry and replays deferred ops (they will
// re-miss).
func (c *MESIL1) removeLine(addr memsys.Addr, line *mesiL1Line) {
	deferred := line.deferred
	c.array.Remove(addr)
	deferred.replay(c.sim, c.cpuOpH)
}

// satisfyPrimary completes the miss-initiating op once data is available.
func (c *MESIL1) satisfyPrimary(line *mesiL1Line, invalidated bool) {
	op := line.primary
	if op == nil {
		return
	}
	line.primary = nil
	switch op.Kind {
	case ReqLoad:
		c.completeLoad(line, op, invalidated)
	case ReqStore:
		c.performStore(line, op)
	case ReqAtomic:
		c.performAtomic(line, op)
	}
}

// maybeCompleteGETX finishes an IM/SM miss when data and all inv acks
// have arrived: the line becomes M, the primary performs (the store's
// serialization point) and the directory is unblocked.
func (c *MESIL1) maybeCompleteGETX(addr memsys.Addr, line *mesiL1Line) {
	if !line.haveData || line.pendingAcks != 0 {
		return
	}
	line.state = l1M
	line.haveData = false
	c.satisfyPrimary(line, false)
	c.send(c.homeTile(addr), interconnect.VNetRequest,
		Msg{Type: MsgUnblock, Addr: addr, Requestor: c.id})
	c.settle(line)
}
