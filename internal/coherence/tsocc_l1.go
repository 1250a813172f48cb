package coherence

import (
	"fmt"

	"repro/internal/bugs"
	"repro/internal/interconnect"
	"repro/internal/memsys"
	"repro/internal/sim"
)

// TSO-CC (Elver & Nagarajan, HPCA 2014) is a lazy consistency-directed
// coherence protocol for TSO. It deliberately violates the SWMR
// invariant: shared copies are not tracked and writers never invalidate
// readers. TSO is instead enforced by
//
//   - bounded reads: a Shared line may be read MaxReads times before it
//     must be re-fetched (eventual visibility);
//   - per-writer timestamps: every data response carries the writer's
//     timestamp; "where the requested line's timestamp is larger or
//     equal than the last-seen timestamp from the writer of that line,
//     self-invalidate all Shared lines" (§5.3, quoting the TSO-CC rule —
//     the TSO-CC+compare bug changes ≥ to >);
//   - epoch ids: timestamps are periodically reset; epoch ids guard
//     against races between reset messages and in-flight responses
//     (removed by the TSO-CC+no-epoch-ids bug).
type tsoL1State uint8

const (
	tsoI tsoL1State = iota
	tsoSH
	tsoEX
	tsoISD // load fetch outstanding
	tsoIXD // store fetch outstanding
	tsoWBI // exclusive writeback in flight
)

var tsoL1StateNames = [...]string{"I", "Sh", "Ex", "ISD", "IXD", "WB_I"}

func (s tsoL1State) String() string { return tsoL1StateNames[s] }

func (s tsoL1State) stable() bool { return s <= tsoEX }

type tsoL1Event uint8

const (
	tLoad tsoL1Event = iota
	tStore
	tAtomic
	tFlush
	tReplace
	tData
	tDataEx
	tFetch
	tFetchInv
	tWBAck
	tTsReset
)

var tsoL1EventNames = [...]string{
	"Load", "Store", "Atomic", "Flush", "Replacement",
	"Data", "DataEx", "Fetch", "FetchInv", "WB_Ack", "TsReset",
}

func (e tsoL1Event) String() string { return tsoL1EventNames[e] }

// tsoL1Line is the per-line L1 state.
type tsoL1Line struct {
	state     tsoL1State
	data      memsys.LineData
	dirty     bool
	readsLeft int
	// grantSeq is the L2 fetch generation at the time this line's data
	// was granted (echoed from the grant's AckCount). Fetches whose
	// generation is not newer are stale — they were aimed at an
	// earlier grant of this line — and must be ignored: serving one
	// would destroy the current grant while the L2 discards the
	// out-of-generation ack, leaving the L2 convinced this core still
	// owns a line it no longer holds.
	grantSeq int
	// wts/wepoch record the owner's timestamp at the time of the last
	// write to this line. Fetch responses must report the write-time
	// timestamp (not the current one): the ≥-vs-> comparison bug only
	// manifests when a reader's last-seen group equals the line's
	// write group.
	wts      uint32
	wepoch   uint32
	primary  *Request
	deferred reqQueue
}

// tsoSeen is the last-seen timestamp record a core keeps per writer.
type tsoSeen struct {
	epoch uint32
	ts    uint32
}

// TSOCCL1 is one core's private L1 under TSO-CC.
type TSOCCL1 struct {
	id    int
	cores int
	tiles int
	array *Array[tsoL1Line]
	sim   *sim.Sim
	net   *interconnect.Network
	msgs  *MsgPool
	bugs  bugs.Set
	// covRec is the interned coverage front end (see MESIL1);
	// tsResetID is the pre-resolved core-level timestamp-reset
	// pseudo-transition.
	covRec    covRecorder
	tsResetID TransitionID
	errs      ErrorSink
	// absent stands in for the line of a message whose line is not
	// cached (see MESIL1); victims is selfInvalidate's scratch list.
	absent  tsoL1Line
	victims []memsys.Addr

	// Timestamp machinery (per core, §5.3).
	ts            uint32
	epoch         uint32
	writesInGroup int
	lastSeen      []tsoSeen

	// MaxReads bounds consecutive hits on a Shared line.
	MaxReads int
	// GroupSize is the number of writes per timestamp increment
	// (timestamp groups).
	GroupSize int
	// TsMax triggers a timestamp reset (and epoch increment) when
	// exceeded; small values make reset races frequent.
	TsMax uint32

	HitLatency sim.Tick
	RetryDelay sim.Tick

	// cpuOpH/cpuOpNowH are the pre-bound hot callbacks (see MESIL1):
	// mandatory-queue accesses, retries and MSHR replays dispatch
	// through them on the kernel's zero-alloc path.
	cpuOpH    sim.Handler
	cpuOpNowH sim.Handler

	invalNotify func(line memsys.Addr)
}

// TSOCCL1Config configures a TSO-CC L1.
type TSOCCL1Config struct {
	CoreID          int
	Cores           int
	Tiles           int
	SizeBytes, Ways int
	Bugs            bugs.Set
	Coverage        CoverageSink
	Errors          ErrorSink
	// Msgs is the machine's shared message pool; nil gives the
	// controller a private one.
	Msgs *MsgPool
}

// NewTSOCCL1 creates the controller and registers it on the network.
func NewTSOCCL1(s *sim.Sim, net *interconnect.Network, cfg TSOCCL1Config, row, col int) (*TSOCCL1, error) {
	sets, ways := GeomFor(cfg.SizeBytes, cfg.Ways)
	c := &TSOCCL1{
		id:          cfg.CoreID,
		cores:       cfg.Cores,
		tiles:       cfg.Tiles,
		array:       NewArray[tsoL1Line](sets, ways),
		sim:         s,
		net:         net,
		msgs:        cfg.Msgs,
		bugs:        cfg.Bugs,
		covRec:      newCovRecorder("L1Cache", tsoL1StateNames[:], tsoL1EventNames[:], tsoccL1Keys),
		lastSeen:    make([]tsoSeen, cfg.Cores),
		MaxReads:    4,
		GroupSize:   4,
		TsMax:       8,
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

// Reset returns the controller to its just-built state, reporting to
// cov and errs from now on (see MESIL1.Reset). Unlike ResetCaches it
// also rewinds the timestamp machinery: a machine handed to a new
// campaign starts where a new machine does.
func (c *TSOCCL1) Reset(cov CoverageSink, errs ErrorSink) {
	c.covRec.bind(cov)
	c.tsResetID = c.covRec.resolve("core", tTsReset.String())
	c.errs = errorSink(errs)
	c.array.Reset()
	c.ts, c.epoch, c.writesInGroup = 0, 0, 0
	clear(c.lastSeen)
}

// SetInvalListener implements CacheL1.
func (c *TSOCCL1) SetInvalListener(fn func(line memsys.Addr)) { c.invalNotify = fn }

// ResetCaches implements CacheL1. Timestamps and last-seen state are
// deliberately kept: they are non-test simulation state (§5.1).
func (c *TSOCCL1) ResetCaches() { c.array.Clear() }

// Acquire implements CacheL1: the fence's acquire side is the same
// self-invalidation TSO-CC applies on RMWs — without it, explicit
// fences would not flush timestamp-stale Shared lines, and a po-later
// load could read a value older than writes ordered before the fence.
func (c *TSOCCL1) Acquire() { c.selfInvalidate() }

// Issue implements CacheL1: it pays the access latency, then processes
// atomically (see the MESI counterpart for the capture/perform atomicity
// argument).
func (c *TSOCCL1) Issue(op *Request) {
	c.sim.ScheduleEvent(c.HitLatency, c.cpuOpNowH, op, 0)
}

func (c *TSOCCL1) cpuOpNow(op *Request) {
	lineAddr := op.Addr.LineAddr()
	line, ok := c.array.Lookup(lineAddr)
	if ok && !line.state.stable() {
		line.deferred.push(op)
		return
	}
	if !ok {
		if op.Kind == ReqFlush {
			c.sim.ScheduleEvent(c.HitLatency, requestDone, op, 0)
			return
		}
		var retry bool
		line, retry = c.allocate(lineAddr)
		if line == nil {
			if retry {
				c.sim.ScheduleEvent(c.RetryDelay, c.cpuOpH, op, 0)
			}
			return
		}
	}
	c.dispatch(tsoReqEvent[op.Kind], lineAddr, line, nil, op)
}

// tsoReqEvent maps a CPU operation kind to its state-machine input.
var tsoReqEvent = [...]tsoL1Event{ReqLoad: tLoad, ReqStore: tStore, ReqAtomic: tAtomic, ReqFlush: tFlush}

func tsoL1Evictable(l *tsoL1Line) bool { return l.state.stable() }

func (c *TSOCCL1) allocate(lineAddr memsys.Addr) (*tsoL1Line, bool) {
	if !c.array.HasFree(lineAddr) {
		vAddr, vLine, ok := c.array.Victim(lineAddr, tsoL1Evictable)
		if !ok {
			return nil, true
		}
		c.dispatch(tReplace, vAddr, vLine, nil, nil)
		if !c.array.HasFree(lineAddr) {
			return nil, true
		}
	}
	line := c.array.Insert(lineAddr)
	line.state = tsoI
	return line, false
}

// Deliver implements interconnect.Handler.
func (c *TSOCCL1) Deliver(vnet interconnect.VNet, payload interface{}) {
	msg := payload.(*Msg)
	defer c.msgs.release(msg)
	if msg.Type == MsgTTsReset {
		// Timestamp resets are core-level, not per-line.
		c.covRec.sink.RecordID(c.tsResetID)
		c.handleTsReset(msg)
		return
	}
	lineAddr := msg.Addr.LineAddr()
	line, ok := c.array.Peek(lineAddr)
	if !ok {
		c.absent = tsoL1Line{state: tsoI}
		line = &c.absent
	}
	ev, ok := tsoL1MsgEvent(msg.Type)
	if !ok {
		panic(fmt.Sprintf("tsocc l1: unroutable message %s", msg))
	}
	c.dispatch(ev, lineAddr, line, msg, nil)
}

func tsoL1MsgEvent(t MsgType) (tsoL1Event, bool) {
	switch t {
	case MsgTData:
		return tData, true
	case MsgTDataEx:
		return tDataEx, true
	case MsgTFetch:
		return tFetch, true
	case MsgTFetchInv:
		return tFetchInv, true
	case MsgTWBAck:
		return tWBAck, true
	default:
		return 0, false
	}
}

type tsoL1Ctx struct {
	addr memsys.Addr
	line *tsoL1Line
	msg  *Msg
	op   *Request
}

type tsoL1Handler func(c *TSOCCL1, x tsoL1Ctx)

func (c *TSOCCL1) dispatch(ev tsoL1Event, addr memsys.Addr, line *tsoL1Line, msg *Msg, op *Request) {
	h := tsoccL1Table[line.state][ev]
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
	h(c, tsoL1Ctx{addr: addr, line: line, msg: msg, op: op})
}

func (c *TSOCCL1) send(dst interconnect.NodeID, vnet interconnect.VNet, m Msg) {
	m.Src = L1Node(c.id)
	c.net.Send(L1Node(c.id), dst, vnet, c.msgs.alloc(m))
}

func (c *TSOCCL1) homeTile(addr memsys.Addr) interconnect.NodeID {
	return L2Node(TileOf(addr, c.tiles))
}

// tsGroup quantizes a timestamp into its timestamp group.
func (c *TSOCCL1) tsGroup(ts uint32) uint32 {
	if c.GroupSize <= 1 {
		return ts
	}
	return ts / uint32(c.GroupSize)
}

// decideSelfInvalidate applies the TSO-CC acquire rule to a data
// response's (writer, epoch, ts) metadata and returns whether all Shared
// lines must be self-invalidated. It also updates lastSeen.
//
// The fixed protocol applies the conservative acquire: every fill whose
// last writer is another core (or unknown) self-invalidates. The
// timestamp machinery still runs (groups, resets, epochs), but its
// *filtering* — skipping the self-invalidation when the reader already
// synchronized past the writer's timestamp — is exactly where the two
// studied TSO-CC bugs live, so the filter is only active under those
// injections (EXPERIMENTS.md, "Scenario matrix — PSO/RMO
// discrimination", notes what the substitution still leaves open as its
// known limitation):
//
//   - Bug TSO-CC+no-epoch-ids: the filter compares raw timestamp groups
//     with no epoch guard, so a response generated after a timestamp
//     reset but processed before the reset broadcast compares a small
//     new timestamp against a large stale last-seen value and misses
//     the self-invalidation.
//   - Bug TSO-CC+compare: the filter uses > instead of the required ≥,
//     missing self-invalidation when the writer's later writes share
//     the timestamp group of the last-seen value.
func (c *TSOCCL1) decideSelfInvalidate(writer int, epoch, ts uint32) bool {
	if writer == c.id {
		return false // own writes need no acquire
	}
	if writer < 0 {
		// Unknown writer (initial data): the faulty filters cannot
		// evaluate and skip; the fixed protocol stays conservative.
		return !c.bugs.TSOCCNoEpochIDs && !c.bugs.TSOCCCompare
	}
	seen := &c.lastSeen[writer]
	switch {
	case c.bugs.TSOCCNoEpochIDs:
		selfInv := c.tsGroup(ts) >= c.tsGroup(seen.ts)
		if ts > seen.ts {
			seen.ts = ts
		}
		return selfInv
	case c.bugs.TSOCCCompare:
		if epoch != seen.epoch {
			seen.epoch = epoch
			seen.ts = ts
			return true
		}
		selfInv := c.tsGroup(ts) > c.tsGroup(seen.ts)
		if ts > seen.ts {
			seen.ts = ts
		}
		return selfInv
	default:
		// Fixed: conservative acquire.
		seen.epoch = epoch
		if ts > seen.ts {
			seen.ts = ts
		}
		return true
	}
}

// selfInvalidate drops every Shared line and notifies the LQ for each —
// self-invalidation is the only invalidation Shared lines ever receive
// under TSO-CC, so this notification carries the whole Peekaboo burden.
func (c *TSOCCL1) selfInvalidate() {
	victims := c.victims[:0]
	c.array.Range(func(addr memsys.Addr, line *tsoL1Line) bool {
		if line.state == tsoSH && line.deferred.empty() && line.primary == nil {
			victims = append(victims, addr)
		}
		return true
	})
	c.victims = victims[:0]
	for _, addr := range victims {
		c.array.Remove(addr)
		c.invalNotify(addr)
	}
}

// tsOnWrite advances the write-group timestamp machinery and triggers a
// reset broadcast when TsMax is exceeded.
func (c *TSOCCL1) tsOnWrite() {
	c.writesInGroup++
	if c.writesInGroup < c.GroupSize {
		return
	}
	c.writesInGroup = 0
	c.ts++
	if c.ts <= c.TsMax {
		return
	}
	// Timestamp reset: new epoch, broadcast to all other cores.
	c.ts = 0
	c.epoch++
	for core := 0; core < c.cores; core++ {
		if core == c.id {
			continue
		}
		c.send(L1Node(core), interconnect.VNetForward, Msg{
			Type:   MsgTTsReset,
			Writer: c.id,
			Epoch:  c.epoch,
		})
	}
}

// handleTsReset processes a writer's reset broadcast.
func (c *TSOCCL1) handleTsReset(msg *Msg) {
	seen := &c.lastSeen[msg.Writer]
	if c.bugs.TSOCCNoEpochIDs {
		// Without epoch ids the receiver can only zero its record;
		// responses in flight race with this update.
		seen.ts = 0
		return
	}
	seen.epoch = msg.Epoch
	seen.ts = 0
}

// completeLoad captures and completes synchronously: the capture is the
// perform point (no invalidation window before the LQ sees it).
func (c *TSOCCL1) completeLoad(line *tsoL1Line, op *Request, invalidated bool) {
	op.Done(op, line.data.Word(op.Addr), invalidated)
}

func (c *TSOCCL1) performStore(line *tsoL1Line, op *Request) {
	line.data.SetWord(op.Addr, op.Val)
	line.dirty = true
	line.wts, line.wepoch = c.ts, c.epoch
	c.tsOnWrite()
	c.sim.ScheduleEvent(0, requestDone, op, 0)
}

func (c *TSOCCL1) performAtomic(line *tsoL1Line, op *Request) {
	old := line.data.Word(op.Addr)
	line.data.SetWord(op.Addr, op.Val)
	line.dirty = true
	line.wts, line.wepoch = c.ts, c.epoch
	c.tsOnWrite()
	// RMWs are fences: the acquire side self-invalidates all Shared
	// lines (the release side is the CPU's store-buffer drain).
	c.selfInvalidate()
	c.sim.ScheduleEvent(0, requestDone, op, old)
}

func (c *TSOCCL1) settle(line *tsoL1Line) {
	line.primary = nil
	line.deferred.replay(c.sim, c.cpuOpH)
}

func (c *TSOCCL1) removeLine(addr memsys.Addr, line *tsoL1Line) {
	deferred := line.deferred
	c.array.Remove(addr)
	deferred.replay(c.sim, c.cpuOpH)
}

func (c *TSOCCL1) satisfyPrimary(line *tsoL1Line) {
	op := line.primary
	if op == nil {
		return
	}
	line.primary = nil
	switch op.Kind {
	case ReqLoad:
		c.completeLoad(line, op, false)
	case ReqStore:
		c.performStore(line, op)
	case ReqAtomic:
		c.performAtomic(line, op)
	}
}
