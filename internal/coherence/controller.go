package coherence

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/bugs"
	"repro/internal/interconnect"
	"repro/internal/memsys"
	"repro/internal/sim"
)

// Controller timing and TSO-CC parameters. Each has the one value the
// evaluation uses.
const (
	// hitLatency is the L1 tag/data access latency (Table 2: 3 cycles).
	hitLatency sim.Tick = 3
	// retryDelay spaces L1 retries: a CPU operation whose set has no
	// evictable way, and a TSO-CC fetch that overtook its own grant.
	retryDelay sim.Tick = 8
	// accessLatency is an L2 tile's tag+data access latency; together
	// with routing it lands L2 round trips in Table 2's 30–80 band.
	accessLatency sim.Tick = 18
	// recycleDelay spaces retries of L2 requests that hit blocked lines.
	recycleDelay sim.Tick = 10
	// maxReads bounds consecutive hits on a TSO-CC Shared line.
	maxReads = 4
	// groupSize is the number of TSO-CC writes per timestamp increment
	// (timestamp groups).
	groupSize = 4
	// tsMax triggers a TSO-CC timestamp reset (and epoch increment) when
	// exceeded; small values make reset races frequent.
	tsMax uint32 = 8
)

// Config configures one cache controller.
type Config struct {
	// ID is the core of an L1, the tile of an L2.
	ID           int
	Cores, Tiles int
	// SizeBytes/Ways give the geometry (Table 2: 32KB 4-way L1s,
	// 128KB 4-way L2 tiles).
	SizeBytes, Ways int
	Bugs            bugs.Set
	// Msgs is the machine's shared message pool (required).
	Msgs *MsgPool
}

// ctx carries a transition's inputs; handlers take it by value so a
// dispatch allocates nothing.
type ctx[L any] struct {
	addr memsys.Addr // line address
	line *L
	msg  *Msg
	op   *Request
}

// linePtr is what the skeleton needs of a line: its state as a table
// row.
type linePtr[L any] interface {
	*L
	row() int
}

// Message routes that are not an event index.
const (
	unroutable int8 = -1
	// coreRoute marks a message handled per core, not per line (TSO-CC's
	// timestamp reset).
	coreRoute int8 = -2
)

// kind is one controller kind's protocol: names, transition table,
// coverage lattice and message routing. It is built once at package
// init and shared read-only by every instance of every machine.
type kind[C, L any, P linePtr[L]] struct {
	controller     string
	states, events []string
	// table is the dense [state][event] transition table, one row of
	// len(events) per state; a nil cell is an invalid transition. ids
	// holds each occupied cell's TransitionID in the same layout.
	table []func(c *C, x ctx[L])
	ids   []TransitionID
	// msgEvent routes a message type to its event (or unroutable,
	// coreRoute). request marks the message types that pay
	// accessLatency and allocate an absent line (the L2s' requests).
	msgEvent [numMsgTypes]int8
	request  [numMsgTypes]bool
	// replace is the replacement event; stable is the bitmask of rows a
	// victim may be in and, at an L1, a new CPU operation proceeds in.
	replace int
	stable  uint32
	// blank is a just-inserted line, and the stand-in for a message
	// whose line is not cached.
	blank L
	// recycleNet/recycleDelay are where and how late a message this
	// controller cannot serve yet is delivered to itself again.
	recycleNet   interconnect.VNet
	recycleDelay sim.Tick
	// evictable is Victim's predicate: the line's row is stable.
	evictable func(*L) bool

	// L1s only. loadRows are transient rows a load dispatches in anyway
	// (MESI's SM keeps valid shared data). store/atomic perform a
	// primary at the coherence point.
	loadRows      uint32
	store, atomic func(c *C, line *L, op *Request)

	// Optional protocol hooks: reset rewinds per-controller state on
	// Reset; core handles coreRoute messages, recorded as the transition
	// (controller, "core", coreEvent) numbered into coreID.
	reset     func(c *C)
	core      func(c *C, m *Msg)
	coreEvent string
	coreID    TransitionID
}

// routes builds a message→event map with every other type unroutable.
func routes[E ~uint8](m map[MsgType]E) [numMsgTypes]int8 {
	var r [numMsgTypes]int8
	for i := range r {
		r[i] = unroutable
	}
	for t, e := range m {
		r[t] = int8(e)
	}
	return r
}

// vocabEntry is one transition awaiting its TransitionID, written to id.
type vocabEntry struct {
	controller, state, event string
	id                       *TransitionID
}

// finish completes a kind whose table is laid out and lists its
// transitions for numbering: every occupied cell, plus the core-level
// transition if the kind has one.
func (k *kind[C, L, P]) finish() []vocabEntry {
	k.ids = make([]TransitionID, len(k.table))
	k.evictable = func(l *L) bool { return k.stable>>P(l).row()&1 != 0 }
	var out []vocabEntry
	for i, h := range k.table {
		if h != nil {
			out = append(out, vocabEntry{k.controller, k.states[i/len(k.events)], k.events[i%len(k.events)], &k.ids[i]})
		}
	}
	if k.core != nil {
		out = append(out, vocabEntry{k.controller, "core", k.coreEvent, &k.coreID})
	}
	return out
}

// number assigns a protocol's TransitionIDs in sorted (controller, state,
// event) order — the order of the wire vocabulary — and returns the
// transitions' "controller:state:event" names in ID order.
func number(kinds ...[]vocabEntry) []string {
	var all []vocabEntry
	for _, k := range kinds {
		all = append(all, k...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.controller != b.controller {
			return a.controller < b.controller
		}
		if a.state != b.state {
			return a.state < b.state
		}
		return a.event < b.event
	})
	names := make([]string, len(all))
	for i, e := range all {
		*e.id = TransitionID(i)
		names[i] = e.controller + ":" + e.state + ":" + e.event
	}
	return names
}

var mesiNames, tsoccNames []string

func init() {
	initMESIL1()
	initMESIL2()
	initTSOCCL1()
	initTSOCCL2()
	mesiNames = number(mesiL1Kind.finish(), mesiL2Kind.finish())
	tsoccNames = number(tsoccL1Kind.finish(), tsoccL2Kind.finish())
}

// MESITransitions names the MESI transitions, both controller classes,
// in TransitionID order: the Table 6 coverage denominator. The slice is
// shared and must not be modified.
func MESITransitions() []string { return mesiNames }

// TSOCCTransitions is MESITransitions for TSO-CC, including the
// core-level timestamp-reset transition.
func TSOCCTransitions() []string { return tsoccNames }

// ctl is the skeleton every controller embeds: it owns the cache array,
// looks lines up, allocates, dispatches through its kind's table and
// records coverage, sends and recycles messages, and resets.
type ctl[C, L any, P linePtr[L]] struct {
	self         *C
	k            *kind[C, L, P]
	id           int
	cores, tiles int
	node         interconnect.NodeID
	array        *Array[L]
	sim          *sim.Sim
	net          *interconnect.Network
	msgs         *MsgPool
	bugs         bugs.Set
	cov          CoverageSink
	errs         ErrorSink
	// absent holds the kind's blank line for a message whose line is not
	// cached.
	absent L
	// deliverH and processH are the pre-bound delivery and access-latency
	// callbacks: the network dispatches each message straight to deliverH,
	// and requests pay the tile latency through processH, on the kernel's
	// zero-alloc path with the message as the event argument.
	deliverH, processH sim.Handler
}

// build wires a controller of kind k at node, leaves it reset (no
// coverage, panicking errors) and registers it on the network.
func (b *ctl[C, L, P]) build(self *C, k *kind[C, L, P], s *sim.Sim, net *interconnect.Network, node interconnect.NodeID, cfg Config, row, col int) error {
	if cfg.Msgs == nil {
		return errors.New("coherence: Config.Msgs is required")
	}
	sets, ways := GeomFor(cfg.SizeBytes, cfg.Ways)
	*b = ctl[C, L, P]{
		self: self, k: k, id: cfg.ID, cores: cfg.Cores, tiles: cfg.Tiles, node: node,
		array: NewArray[L](sets, ways), sim: s, net: net, msgs: cfg.Msgs, bugs: cfg.Bugs,
	}
	b.deliverH = func(arg any, _ uint64) { b.deliver(arg.(*Msg)) }
	b.processH = func(arg any, _ uint64) { b.process(arg.(*Msg)) }
	b.Reset(nil, nil)
	return net.Register(node, b.deliverH, row, col)
}

// Reset returns the controller to its just-built state, reporting
// transitions to cov and protocol errors to errs from now on (nil
// discards and panics respectively). What the controller has allocated
// stays. Must only be called with no message or request of the
// controller in flight.
func (b *ctl[C, L, P]) Reset(cov CoverageSink, errs ErrorSink) {
	if cov == nil {
		cov = NopCoverage{}
	}
	b.cov = cov
	b.errs = errorSink(errs)
	b.array.Reset()
	if b.k.reset != nil {
		b.k.reset(b.self)
	}
}

// ResetCaches drops every line without traffic (reset_test_mem
// support). Controller state outside the lines, such as TSO-CC's
// timestamps, is non-test simulation state (§5.1) and stays.
func (b *ctl[C, L, P]) ResetCaches() { b.array.Clear() }

// deliver receives a message from the network. Requests pay the access
// latency before processing; everything else processes immediately.
func (b *ctl[C, L, P]) deliver(msg *Msg) {
	if b.k.request[msg.Type] {
		b.sim.ScheduleEvent(accessLatency, b.processH, msg, 0)
		return
	}
	b.process(msg)
}

// process runs one message through the state machine and releases it
// (a recycled message stays in flight). A request for an absent line
// allocates it; any other message meets the blank stand-in.
func (b *ctl[C, L, P]) process(msg *Msg) {
	defer b.msgs.release(msg)
	ev := b.k.msgEvent[msg.Type]
	if ev < 0 {
		if ev == coreRoute {
			b.cov.RecordID(b.k.coreID)
			b.k.core(b.self, msg)
			return
		}
		panic(fmt.Sprintf("coherence: %s cannot route message %s", b.k.controller, msg))
	}
	addr := msg.Addr.LineAddr()
	line, ok := b.array.Peek(addr)
	if !ok {
		if b.k.request[msg.Type] {
			if line = b.allocate(addr); line == nil {
				b.recycle(msg)
				return
			}
		} else {
			b.absent = b.k.blank
			line = &b.absent
		}
	}
	b.dispatch(int(ev), addr, line, msg, nil)
}

// allocate makes room for addr, replacing the LRU stable line of its set
// if needed, and inserts a blank line. It returns nil when the caller
// must retry: no way is evictable, or the victim entered a writeback
// state.
func (b *ctl[C, L, P]) allocate(addr memsys.Addr) *L {
	if !b.array.HasFree(addr) {
		vAddr, vLine, ok := b.array.Victim(addr, b.k.evictable)
		if !ok {
			return nil
		}
		b.dispatch(b.k.replace, vAddr, vLine, nil, nil)
		if !b.array.HasFree(addr) {
			return nil
		}
	}
	line := b.array.Insert(addr)
	*line = b.k.blank
	return line
}

// dispatch looks the (state, event) cell up, reports an invalid
// transition for an empty one, and otherwise records the transition and
// runs its handler.
func (b *ctl[C, L, P]) dispatch(ev int, addr memsys.Addr, line *L, msg *Msg, op *Request) {
	row := P(line).row()
	i := row*len(b.k.events) + ev
	h := b.k.table[i]
	if h == nil {
		b.invalid(row, ev, addr)
		return
	}
	b.cov.RecordID(b.k.ids[i])
	h(b.self, ctx[L]{addr: addr, line: line, msg: msg, op: op})
}

// invalid reports an event the table has no entry for: the Ruby-style
// fatal protocol error.
func (b *ctl[C, L, P]) invalid(row, ev int, addr memsys.Addr) {
	b.errs.ProtocolError(&InvalidTransitionError{
		Controller: b.k.controller,
		State:      b.k.states[row],
		Event:      b.k.events[ev],
		Addr:       addr,
	})
}

// send stamps m as this controller's and sends a pooled copy of it. The
// caller builds m in place (a non-escaping &Msg{...}), so the 136-byte
// message is copied once, into its pool slot.
func (b *ctl[C, L, P]) send(dst interconnect.NodeID, vnet interconnect.VNet, m *Msg) {
	m.Src = b.node
	b.net.Send(b.node, dst, vnet, b.msgs.alloc(m))
}

// recycle delivers msg to this controller again later.
func (b *ctl[C, L, P]) recycle(msg *Msg) {
	b.net.LocalDeliver(b.node, b.k.recycleNet, b.k.recycleDelay, msg.requeue())
}

func (b *ctl[C, L, P]) homeTile(addr memsys.Addr) interconnect.NodeID {
	return L2Node(TileOf(addr, b.tiles))
}

// l1Line is the part of a line every L1 keeps.
type l1Line struct {
	data memsys.LineData
	// primary is the miss-initiating request; deferred holds the
	// requests coalesced behind it.
	primary  *Request
	deferred reqQueue
}

// l1Ptr is what the L1 skeleton needs of a line.
type l1Ptr[L any] interface {
	linePtr[L]
	head() *l1Line
}

// l1ctl is the skeleton's CPU side, which both L1s share.
type l1ctl[C, L any, P l1Ptr[L]] struct {
	ctl[C, L, P]
	// cpuOpH/cpuOpNowH are the pre-bound hot callbacks: every
	// mandatory-queue access, retry and MSHR replay dispatches through
	// them on the kernel's zero-alloc path, with the op as the argument.
	cpuOpH, cpuOpNowH sim.Handler
	invalNotify       func(line memsys.Addr)
}

// build wires an L1 of core cfg.ID (see ctl.build).
func (c *l1ctl[C, L, P]) build(self *C, k *kind[C, L, P], s *sim.Sim, net *interconnect.Network, cfg Config, row, col int) error {
	c.cpuOpH = func(arg any, _ uint64) { c.Issue(arg.(*Request)) }
	c.cpuOpNowH = func(arg any, _ uint64) { c.cpuOpNow(arg.(*Request)) }
	c.invalNotify = func(memsys.Addr) {}
	return c.ctl.build(self, k, s, net, L1Node(cfg.ID), cfg, row, col)
}

// SetInvalListener implements CacheL1.
func (c *l1ctl[C, L, P]) SetInvalListener(fn func(line memsys.Addr)) { c.invalNotify = fn }

// Issue implements CacheL1: it pays the L1 tag/data access latency, then
// dispatches the CPU operation through the state machine (deferring
// into the MSHR when the line is transient). Processing after the
// latency keeps a load's value capture and completion atomic: there is
// no window in which a captured value can be invalidated before the LQ
// learns the load performed.
func (c *l1ctl[C, L, P]) Issue(op *Request) {
	c.sim.ScheduleEvent(hitLatency, c.cpuOpNowH, op, 0)
}

// cpuOpNow dispatches op. On a transient line it coalesces (the op
// replays once the line settles), except for loads in the kind's
// loadRows. An absent line is allocated; a flush of one completes at
// once (clflush of an uncached line is a no-op). The L1 events start
// with the four CPU operations in ReqKind order.
func (c *l1ctl[C, L, P]) cpuOpNow(op *Request) {
	addr := op.Addr.LineAddr()
	line, ok := c.array.Lookup(addr)
	if ok {
		if row := P(line).row(); c.k.stable>>row&1 == 0 && !(op.Kind == ReqLoad && c.k.loadRows>>row&1 != 0) {
			P(line).head().deferred.push(op)
			return
		}
	} else {
		if op.Kind == ReqFlush {
			c.sim.ScheduleEvent(hitLatency, requestDone, op, 0)
			return
		}
		if line = c.allocate(addr); line == nil {
			c.sim.ScheduleEvent(retryDelay, c.cpuOpH, op, 0)
			return
		}
	}
	c.dispatch(int(op.Kind), addr, line, nil, op)
}

// completeLoad captures the value and completes the load synchronously:
// the capture is the load's perform point, so no invalidation can slip
// between capture and the LQ seeing the load as performed.
func (c *l1ctl[C, L, P]) completeLoad(line *L, op *Request, invalidated bool) {
	op.Done(op, P(line).head().data.Word(op.Addr), invalidated)
}

// satisfyPrimary completes the miss-initiating op once data is
// available.
func (c *l1ctl[C, L, P]) satisfyPrimary(line *L, invalidated bool) {
	h := P(line).head()
	op := h.primary
	if op == nil {
		return
	}
	h.primary = nil
	switch op.Kind {
	case ReqLoad:
		c.completeLoad(line, op, invalidated)
	case ReqStore:
		c.k.store(c.self, line, op)
	case ReqAtomic:
		c.k.atomic(c.self, line, op)
	}
}

// settle replays MSHR-deferred operations after the line reaches a
// stable state.
func (c *l1ctl[C, L, P]) settle(line *L) {
	h := P(line).head()
	h.primary = nil
	h.deferred.replay(c.sim, c.cpuOpH)
}

// removeLine drops the array entry and replays deferred ops (they will
// re-miss).
func (c *l1ctl[C, L, P]) removeLine(addr memsys.Addr, line *L) {
	deferred := P(line).head().deferred
	c.array.Remove(addr)
	deferred.replay(c.sim, c.cpuOpH)
}
