// Package cpu models the out-of-order cores of Table 2 at the level of
// detail memory-consistency enforcement depends on:
//
//   - loads issue speculatively and out of order within an instruction
//     window (ROB 40 / LSQ 32) and may complete before older loads — the
//     Peekaboo window;
//   - the load queue snoops invalidations forwarded by the coherence
//     protocol and squashes speculatively-performed loads (TSO R→R
//     enforcement); the LQ+no-TSO bug disables the squash;
//   - stores commit in order into a FIFO store buffer that drains to the
//     cache at the coherence point (TSO W→W enforcement; the W→R
//     relaxation); the SQ+no-FIFO bug drains out of order;
//   - locked RMWs drain the store buffer and execute atomically (full
//     fence), clflush likewise;
//   - loads forward from earlier same-address stores (TSO rfi).
//
// Beyond the Table 2 TSO core, the model a core implements fixes its
// orderings, read from the model's memmodel.Row (orderingsOf), so each
// of SC, TSO, PSO and RMO is realized by exactly one core: a row keeping
// W→R drains every store before commit (SC), one relaxing W→W drains the
// store buffer out of order while keeping same-address FIFO and
// store-store fence groups (PSO, RMO), and one relaxing R→R adds
// squash-free loads that keep same-address issue in order (RMO); TSO's
// row is the Table 2 core. These are legal orderings of the model, not
// bugs. Explicit fences (testgen.OpFence) re-impose the dropped orders:
// a full fence drains the store buffer and blocks younger loads, a
// store-store fence opens a new drain group, a load-load fence blocks
// younger loads.
package cpu

import (
	"fmt"

	"repro/internal/bugs"
	"repro/internal/coherence"
	"repro/internal/memmodel"
	"repro/internal/memsys"
	"repro/internal/sim"
	"repro/internal/testgen"
)

// Observer receives architectural events from a core. Commit callbacks
// arrive in program order per thread; WriteSerialized arrives when the
// store reaches its coherence point (the co stamp) and may precede or
// follow the commit callback of the same instruction.
type Observer interface {
	// CommitRead reports a committed load (sub=0, or 0 for the read
	// half of an RMW with atomic=true).
	CommitRead(tid, instr, sub int, addr memsys.Addr, val uint64, atomic bool)
	// CommitWrite reports a committed store in program order.
	CommitWrite(tid, instr, sub int, addr memsys.Addr, val uint64, atomic bool)
	// WriteSerialized reports that the store of (tid, instr, sub)
	// performed at the coherence point; calls across all cores arrive
	// in global serialization order.
	WriteSerialized(tid, instr, sub int, addr memsys.Addr, val uint64)
	// CommitFence reports a committed explicit fence in program order.
	CommitFence(tid, instr, sub int, kind memmodel.FenceKind)
}

// nopObserver discards events.
type nopObserver struct{}

func (nopObserver) CommitRead(int, int, int, memsys.Addr, uint64, bool)  {}
func (nopObserver) CommitWrite(int, int, int, memsys.Addr, uint64, bool) {}
func (nopObserver) WriteSerialized(int, int, int, memsys.Addr, uint64)   {}
func (nopObserver) CommitFence(int, int, int, memmodel.FenceKind)        {}

// orderings are the ways a core departs from the Table 2 TSO core. A
// model's row fixes them (orderingsOf); unlike the bugs.Set toggles, which
// silently break an enforcement the checker still assumes, they are
// legal under that model.
type orderings struct {
	// strongStores drains each store to its coherence point before the
	// store commits, removing the W→R (store buffer) relaxation. SC
	// requires it. Store-to-load forwarding is disabled in favour of
	// stalling, since forwarding a globally-invisible store is itself
	// the relaxation SC forbids.
	strongStores bool
	// nonFIFOSB drains up to NoFIFOWays store-buffer entries
	// concurrently — relaxing W→W — while preserving same-address FIFO
	// and never draining past a store-store fence group boundary. Legal
	// under PSO and RMO only.
	nonFIFOSB bool
	// noLoadSquash disables the LQ invalidation squash — relaxing R→R —
	// while keeping same-address loads issuing in order (coherence still
	// demands SC per location) and blocking loads from issuing past
	// uncommitted full/load-load fences and atomics. Legal under RMO
	// only.
	noLoadSquash bool
}

// orderingsOf returns the orderings realizing a model's row: the most
// relaxed core the row still permits. W→R kept means strongStores, W→W
// relaxed nonFIFOSB, R→R relaxed noLoadSquash; every core keeps R→W.
func orderingsOf(row memmodel.Row) orderings {
	return orderings{
		strongStores: row.Keeps(memmodel.WR),
		nonFIFOSB:    !row.Keeps(memmodel.WW),
		noLoadSquash: !row.Keeps(memmodel.RR),
	}
}

// Orderings names how the model's core departs from the Table 2 TSO
// core, as scenario IDs spell it: "+sc-stores" for SC, "" for TSO,
// "+sb-ooo" for PSO and "+sb-ooo+lq-nosquash" for RMO. A name that is
// no model has no core and no suffix.
func Orderings(model string) string {
	arch, err := memmodel.ByName(model)
	if err != nil {
		return ""
	}
	o, s := orderingsOf(arch.Row()), ""
	if o.strongStores {
		s += "+sc-stores"
	}
	if o.nonFIFOSB {
		s += "+sb-ooo"
	}
	if o.noLoadSquash {
		s += "+lq-nosquash"
	}
	return s
}

// The core's sizes (Table 2).
const (
	// ROBSize bounds how far past the oldest uncommitted instruction
	// the core looks for issueable loads (reorder window).
	ROBSize = 40
	// LSQSize bounds outstanding loads.
	LSQSize = 32
	// SBSize bounds the store buffer.
	SBSize = 8
	// NoFIFOWays is how many store-buffer entries drain concurrently
	// under the SQ+no-FIFO bug or the legal PSO/RMO out-of-order drain.
	NoFIFOWays = 4
)

// Config is what varies between cores: the model they realize and the
// injected bugs. The sizes are Table 2's constants.
type Config struct {
	// Model names the memory model the core realizes (SC, TSO, PSO,
	// RMO); machine.Config.Validate refuses any other.
	Model string
	Bugs  bugs.Set
}

type instState struct {
	issued    bool
	performed bool
	violated  bool
	forwarded bool
	val       uint64
	gen       uint32 // invalidates in-flight callbacks after a squash
}

type sbEntry struct {
	addr     memsys.Addr
	val      uint64
	instr    int
	sub      int
	group    uint32 // store-store fence drain group
	draining bool
}

// Core executes one compiled thread program against its L1.
type Core struct {
	id  int
	sim *sim.Sim
	l1  coherence.CacheL1
	cfg Config
	ord orderings // fixed by cfg.Model
	obs Observer
	// window is the reorder window, ROBSize; tests narrow it.
	window int

	prog testgen.Program
	// linker links a program the first time it is loaded.
	linker testgen.Linker
	// progGen invalidates callbacks that survive across Load calls
	// (e.g. a squashed load's L1 response landing after the next
	// iteration's program was installed).
	progGen    uint64
	status     []instState
	nextCommit int
	outLoads   int
	sb         []sbEntry
	sbDrains   int
	sbGroup    uint32
	flushBusy  bool

	running bool
	done    bool
	onDone  func()

	// advanceH is the core's pre-bound hot callback: every delay-0
	// re-schedule and barrier release dispatches through it on the
	// kernel's zero-alloc path (the pre-wheel code built a fresh
	// method-value closure per schedule). timerH completes the two
	// core-internal timed operations, forwarded loads and OpDelay.
	advanceH sim.Handler
	timerH   sim.Handler

	// reqFree recycles the records of in-flight operations — L1 requests
	// and the core's own timers. A record carries its program slot and
	// the generations that void a completion arriving after a squash or
	// a program reload, and returns here when its completion fires. A
	// free list rather than one record per slot: a squashed load's
	// request is still inside the L1 when its slot re-issues. Records of
	// operations that never complete (a wedged run) are dropped.
	reqFree []*coherence.Request

	committed uint64
	squashes  uint64
}

// New creates a core bound to its L1, realizing cfg.Model; it panics on
// a name that is no model. The LQ invalidation listener is registered
// here.
func New(id int, s *sim.Sim, l1 coherence.CacheL1, cfg Config, obs Observer) *Core {
	arch, err := memmodel.ByName(cfg.Model)
	if err != nil {
		// machine.Config.Validate refuses an unknown model first.
		panic("cpu: " + err.Error())
	}
	c := &Core{id: id, sim: s, l1: l1, cfg: cfg, ord: orderingsOf(arch.Row()), window: ROBSize}
	c.advanceH = func(any, uint64) { c.advance() }
	c.timerH = func(arg any, _ uint64) { c.timerDone(arg.(*coherence.Request)) }
	l1.SetInvalListener(c.onInvalidation)
	c.Reset(obs)
	return c
}

// Reset returns the core to its just-built state — no program, idle,
// counters at zero — reporting to obs from now on (nil discards). New
// itself reaches that state through this call. The status table, store
// buffer and request free list keep their storage. Must only be called
// with no operation of the core in flight.
func (c *Core) Reset(obs Observer) {
	if obs == nil {
		obs = nopObserver{}
	}
	c.obs = obs
	c.Load(nil)
	c.progGen, c.onDone = 0, nil
	c.committed, c.squashes = 0, 0
}

// Committed returns the number of committed instructions over the core's
// lifetime.
func (c *Core) Committed() uint64 { return c.committed }

// Squashes returns the number of LQ squash events.
func (c *Core) Squashes() uint64 { return c.squashes }

// Load installs a program; Start must be called to run it. Mirrors the
// guest workload's make_test_thread (Table 1). The first Load of a
// program links it in place (testgen.Program.Linked), so a compiled test
// is linked once however often its programs are loaded.
func (c *Core) Load(prog testgen.Program) {
	if !prog.Linked() {
		c.linker.Link(prog)
	}
	c.prog = prog
	c.progGen++
	if cap(c.status) < len(prog) {
		c.status = make([]instState, len(prog))
	} else {
		// Stale completions check progGen before they index status, so
		// the previous program's slots can be reused.
		c.status = c.status[:len(prog)]
		clear(c.status)
	}
	c.nextCommit = 0
	c.outLoads = 0
	c.sb = c.sb[:0]
	c.sbDrains = 0
	c.sbGroup = 0
	c.flushBusy = false
	c.done = len(prog) == 0
	c.running = false
}

// Done reports whether the program has fully committed and drained.
func (c *Core) Done() bool { return c.done }

// Start begins execution after offset ticks (the barrier-release skew).
func (c *Core) Start(offset sim.Tick, onDone func()) {
	if len(c.prog) == 0 {
		c.done = true
		if onDone != nil {
			c.sim.ScheduleEvent(offset, sim.InvokeFunc, onDone, 0)
		}
		return
	}
	c.onDone = onDone
	c.done = false
	c.running = true
	c.sim.ScheduleEvent(offset, c.advanceH, nil, 0)
}

func (c *Core) schedule() {
	c.sim.ScheduleEvent(0, c.advanceH, nil, 0)
}

// squashDisabled reports whether LQ invalidation squashes are off:
// either the LQ+no-TSO bug (silently breaking the TSO contract) or the
// legal noLoadSquash ordering (the RMO contract never promised R→R).
func (c *Core) squashDisabled() bool {
	return c.cfg.Bugs.LQNoTSO || c.ord.noLoadSquash
}

// onInvalidation is the LQ snoop: the protocol forwarded an invalidation
// of lineAddr. All speculatively-performed, uncommitted loads on that
// line are marked violated and will squash at commit.
//
// Bug LQ+no-TSO (and the legal noLoadSquash ordering): the squash is
// skipped entirely.
func (c *Core) onInvalidation(lineAddr memsys.Addr) {
	if c.squashDisabled() || !c.running {
		return
	}
	dirty := false
	// Every performed, uncommitted plain load on the line squashes — the
	// head load included: its value was captured at perform time, and
	// older instructions (or fences) may have completed after that, so
	// committing the pre-invalidation value would order the load too
	// early. Forwarded loads are squashed too: a load forwarded from the
	// store buffer whose source store has since drained would otherwise
	// commit a value older than the invalidating write — also while it
	// is still a tick from performing, if the source drained meanwhile.
	for j := c.nextCommit; j < len(c.prog) && j < c.nextCommit+c.window; j++ {
		if line, _ := c.prog.SnoopLine(j); line != lineAddr {
			continue
		}
		st := &c.status[j]
		if !st.violated && (st.performed || st.forwarded && c.status[c.prog.Forward(j)].performed) {
			st.violated = true
			dirty = true
		}
	}
	if dirty {
		c.schedule()
	}
}

// squash re-executes everything from instruction from onward.
func (c *Core) squash(from int) {
	c.squashes++
	for j := from; j < len(c.prog); j++ {
		st := &c.status[j]
		if !st.issued {
			continue
		}
		if st.issued && !st.performed && c.prog[j].IsLoad() && c.prog[j].Kind != testgen.OpRMW {
			// An in-flight L1 request exists; its callback must be
			// ignored.
			c.outLoads--
		}
		st.gen++
		st.issued = false
		st.performed = false
		st.violated = false
		st.forwarded = false
		st.val = 0
	}
}

// forwardSource finds the youngest older store (Write or RMW) to the
// same word — store-to-load forwarding. Forwarding is only legal while
// the source store has not yet reached the coherence point: once it has
// drained, the load must read the cache (the coherent value), otherwise
// it could commit a value that is coherence-older than a write it is
// already ordered after.
func (c *Core) forwardSource(loadIdx int) (uint64, bool) {
	j := c.prog.Forward(loadIdx)
	if j < 0 || c.status[j].performed {
		return 0, false // no store, or already serialized: read the cache
	}
	return c.prog[j].WriteID, true
}

// depReady reports whether a ReadAddrDp's producing load has a value.
func (c *Core) depReady(idx int) bool {
	dep := c.prog[idx].DepLoad
	if dep < 0 {
		return true
	}
	if dep < c.nextCommit {
		return true // committed
	}
	return c.status[dep].performed
}

// newReq takes a record from the free list for the operation at program
// slot idx. gen is the slot's squash generation (the store buffer
// passes the sub-event number instead: stores are never squashed).
func (c *Core) newReq(idx int, gen uint32, val uint64) *coherence.Request {
	var r *coherence.Request
	if n := len(c.reqFree); n > 0 {
		r = c.reqFree[n-1]
		c.reqFree = c.reqFree[:n-1]
	} else {
		r = &coherence.Request{Done: c.l1Done}
	}
	r.Val = val
	r.Tag, r.Aux = uint64(idx)<<32|uint64(gen), c.progGen
	return r
}

// issue sends the operation at slot idx to the L1.
func (c *Core) issue(kind coherence.ReqKind, idx int, gen uint32, addr memsys.Addr, val uint64) {
	r := c.newReq(idx, gen, val)
	r.Kind, r.Addr = kind, addr
	c.l1.Issue(r)
}

// after completes slot idx with val through timerDone, delay ticks on.
func (c *Core) after(delay sim.Tick, idx int, gen uint32, val uint64) {
	c.sim.ScheduleEvent(delay, c.timerH, c.newReq(idx, gen, val), 0)
}

// freeReq recycles a completed record and reports its slot, its
// generation word, and whether the completion is still current: false
// means it belongs to a program that has since been replaced (e.g. a
// squashed load's L1 response landing after the next iteration's program
// was installed).
func (c *Core) freeReq(r *coherence.Request) (idx int, gen uint32, current bool) {
	idx, gen, current = int(r.Tag>>32), uint32(r.Tag), r.Aux == c.progGen
	c.reqFree = append(c.reqFree, r)
	return
}

// issueLoad sends one load to the L1 (or forwards from an older store).
func (c *Core) issueLoad(idx int) {
	st := &c.status[idx]
	st.issued = true
	if val, ok := c.forwardSource(idx); ok {
		st.forwarded = true
		c.after(1, idx, st.gen, val)
		return
	}
	c.outLoads++
	c.issue(coherence.ReqLoad, idx, st.gen, c.prog[idx].Addr, 0)
}

// timerDone completes the core's own timed operations: a forwarded load
// (the record carries the forwarded value) and an OpDelay.
func (c *Core) timerDone(r *coherence.Request) {
	val := r.Val
	idx, gen, current := c.freeReq(r)
	if !current || c.status[idx].gen != gen {
		return
	}
	c.status[idx].performed = true
	c.status[idx].val = val
	c.schedule()
}

// l1Done is the completion callback of every L1 request.
func (c *Core) l1Done(r *coherence.Request, val uint64, invalidated bool) {
	kind, addr, wval := r.Kind, r.Addr, r.Val
	idx, gen, current := c.freeReq(r)
	if !current {
		return
	}
	if kind == coherence.ReqStore {
		c.storeDone(idx, int(gen), addr, wval)
		return
	}
	st := &c.status[idx]
	if st.gen != gen {
		return // squashed while in flight
	}
	st.performed = true
	switch kind {
	case coherence.ReqLoad:
		c.loadDone(idx, val, invalidated)
	case coherence.ReqAtomic:
		st.val = val
		c.obs.WriteSerialized(c.id, idx, 1, addr, wval)
		c.schedule()
	case coherence.ReqFlush:
		c.flushBusy = false
		c.schedule()
	}
}

// loadDone records a load the L1 just performed.
func (c *Core) loadDone(idx int, val uint64, invalidated bool) {
	c.outLoads--
	st := &c.status[idx]
	st.val = val
	if invalidated && !c.squashDisabled() {
		// The fill arrived with a pending invalidation (IS_I):
		// the data predates the invalidation, and a fence or an
		// older operation may already have completed after the
		// data left the coherence point — retry unconditionally.
		st.violated = true
	}
	if idx == c.nextCommit && !st.violated {
		// The load is the oldest uncommitted instruction and its
		// value was captured synchronously by the cache: commit
		// immediately, leaving no window for an invalidation to
		// arrive between capture and commit. This is the
		// non-speculative at-retirement load that guarantees
		// forward progress under heavy invalidation traffic.
		c.advance()
		return
	}
	c.schedule()
}

// storeDone retires the store-buffer entry of (instr, sub): the store
// reached its coherence point, so it is no longer a legal forwarding
// source.
func (c *Core) storeDone(instr, sub int, addr memsys.Addr, val uint64) {
	c.status[instr].performed = true
	c.obs.WriteSerialized(c.id, instr, sub, addr, val)
	c.sbDrains--
	for k := range c.sb {
		if c.sb[k].instr == instr && c.sb[k].sub == sub {
			c.sb = append(c.sb[:k], c.sb[k+1:]...)
			break
		}
	}
	c.schedule()
}

// loadStalled reports whether load j must wait before issuing, under the
// core's orderings:
//
//   - strongStores: an older in-window same-word store has not reached
//     its coherence point. Forwarding a globally-invisible store is the
//     store-buffer relaxation SC forbids, so the load waits for the
//     drain instead of forwarding.
//   - noLoadSquash: an older same-word load (or RMW) has not performed.
//     With invalidation squashes off, issuing same-address loads in
//     order is what keeps SC-per-location intact.
func (c *Core) loadStalled(j int) bool {
	if !c.ord.strongStores && !c.ord.noLoadSquash {
		return false
	}
	for k := c.prog.PrevWord(j); k >= c.nextCommit; k = c.prog.PrevWord(k) {
		in := &c.prog[k]
		if c.status[k].performed {
			continue
		}
		if c.ord.strongStores && (in.Kind == testgen.OpWrite || in.Kind == testgen.OpRMW) {
			return true
		}
		if c.ord.noLoadSquash && in.IsLoad() {
			return true
		}
	}
	return false
}

// issueWindow issues eligible loads out of order within the ROB window,
// walking the window's plain loads (the only instructions it issues).
// With squashing available, loads speculate past uncommitted fences and
// atomics and the LQ invalidation squash repairs any too-early value at
// commit — which is precisely how the LQ bugs manifest through fenced
// litmus shapes. Only under the legal noLoadSquash ordering does the
// fence enforce younger-load order structurally: the walk stops at an
// uncommitted full or load-load fence (and at atomics, which imply
// them).
func (c *Core) issueWindow() {
	limit := min(c.nextCommit+c.window, len(c.prog))
	if c.ord.noLoadSquash {
		limit = min(limit, c.prog.NextLoadBarrier(c.nextCommit))
	}
	for j := c.prog.NextLoad(c.nextCommit); j < limit; j = c.prog.NextLoad(j + 1) {
		if c.outLoads >= LSQSize {
			return
		}
		if c.status[j].issued {
			continue
		}
		if (c.prog[j].Kind == testgen.OpRead || c.depReady(j)) && !c.loadStalled(j) {
			c.issueLoad(j)
		}
	}
}

// drainSB issues store-buffer entries to the L1. FIFO by default. The
// SQ+no-FIFO bug drains several entries concurrently with no further
// constraint, so younger stores can reach the coherence point first —
// including same-address ones, which is exactly why it is a bug under
// every model. The legal nonFIFOSB ordering also drains concurrently,
// but keeps same-address stores FIFO (coherence requires SC per
// location) and never drains past a store-store fence group boundary.
func (c *Core) drainSB() {
	bugOOO := c.cfg.Bugs.SQNoFIFO
	relaxOOO := c.ord.nonFIFOSB && !bugOOO
	ways := 1
	if bugOOO || relaxOOO {
		ways = NoFIFOWays
	}
	for i := 0; i < len(c.sb) && c.sbDrains < ways; i++ {
		e := &c.sb[i]
		if e.draining {
			continue
		}
		if relaxOOO {
			if e.group != c.sb[0].group {
				break
			}
			blocked := false
			for j := 0; j < i; j++ {
				if c.sb[j].addr.WordAddr() == e.addr.WordAddr() {
					blocked = true
					break
				}
			}
			if blocked {
				continue
			}
		}
		e.draining = true
		c.sbDrains++
		c.issue(coherence.ReqStore, e.instr, uint32(e.sub), e.addr, e.val)
		if !bugOOO && !relaxOOO {
			return
		}
	}
}

// advance is the core's main engine: commit from the head, issue the
// window, drain the store buffer.
func (c *Core) advance() {
	if c.done || !c.running {
		return
	}
	for c.nextCommit < len(c.prog) {
		if !c.commitHead() {
			break
		}
	}
	if c.nextCommit >= len(c.prog) && len(c.sb) == 0 && !c.flushBusy {
		c.running = false
		c.done = true
		if c.onDone != nil {
			c.onDone()
		}
		return
	}
	c.issueWindow()
	c.drainSB()
}

// commitHead tries to commit the oldest instruction; reports whether
// commit advanced.
func (c *Core) commitHead() bool {
	idx := c.nextCommit
	in := &c.prog[idx]
	st := &c.status[idx]
	switch in.Kind {
	case testgen.OpRead, testgen.OpReadAddrDp:
		if !st.issued {
			c.issueWindow()
		}
		if !st.performed {
			return false
		}
		if st.violated {
			c.squash(idx)
			c.issueWindow()
			return false
		}
		c.obs.CommitRead(c.id, idx, 0, in.Addr, st.val, false)
		c.committed++
		c.nextCommit++
		return true

	case testgen.OpWrite:
		if c.ord.strongStores {
			// SC stores: the store reaches its coherence point before
			// it commits, so no later operation can overtake it.
			if !st.issued {
				st.issued = true
				c.sb = append(c.sb, sbEntry{addr: in.Addr, val: in.WriteID, instr: idx, sub: 0, group: c.sbGroup})
				c.drainSB()
				return false
			}
			if !st.performed {
				return false
			}
			c.obs.CommitWrite(c.id, idx, 0, in.Addr, in.WriteID, false)
			c.committed++
			c.nextCommit++
			return true
		}
		if len(c.sb) >= SBSize {
			return false
		}
		c.sb = append(c.sb, sbEntry{addr: in.Addr, val: in.WriteID, instr: idx, sub: 0, group: c.sbGroup})
		c.obs.CommitWrite(c.id, idx, 0, in.Addr, in.WriteID, false)
		c.committed++
		c.nextCommit++
		c.drainSB()
		return true

	case testgen.OpFence:
		// Release side: a full fence waits for the store buffer to
		// drain; a store-store fence closes the current drain group; a
		// load-load fence has no store-side effect. Acquire side: full
		// and load-load fences apply the cache's acquire action
		// (self-invalidation under lazy coherence) so po-later loads
		// observe writes serialized before the fence.
		if in.Fence == testgen.FenceFull && len(c.sb) > 0 {
			c.drainSB()
			return false
		}
		if in.Fence == testgen.FenceSS && len(c.sb) > 0 {
			c.sbGroup++
		}
		if in.Fence != testgen.FenceSS {
			c.l1.Acquire()
		}
		c.obs.CommitFence(c.id, idx, 0, in.Fence)
		c.committed++
		c.nextCommit++
		return true

	case testgen.OpRMW:
		// Locked RMW: full fence. Wait for the store buffer to
		// drain, then execute atomically at the cache.
		if len(c.sb) > 0 {
			c.drainSB()
			return false
		}
		if !st.issued {
			st.issued = true
			c.issue(coherence.ReqAtomic, idx, st.gen, in.Addr, in.WriteID)
			return false
		}
		if !st.performed {
			return false
		}
		c.obs.CommitRead(c.id, idx, 0, in.Addr, st.val, true)
		c.obs.CommitWrite(c.id, idx, 1, in.Addr, in.WriteID, true)
		c.committed++
		c.nextCommit++
		return true

	case testgen.OpCacheFlush:
		if len(c.sb) > 0 {
			c.drainSB()
			return false
		}
		if !st.issued {
			st.issued = true
			c.flushBusy = true
			c.issue(coherence.ReqFlush, idx, st.gen, in.Addr, 0)
			return false
		}
		if !st.performed {
			return false
		}
		c.committed++
		c.nextCommit++
		return true

	case testgen.OpDelay:
		if !st.issued {
			st.issued = true
			c.after(sim.Tick(in.Delay), idx, st.gen, 0)
			return false
		}
		if !st.performed {
			return false
		}
		c.committed++
		c.nextCommit++
		return true

	default:
		panic(fmt.Sprintf("cpu: unknown op kind %v", in.Kind))
	}
}
