package coherence

import (
	"repro/internal/interconnect"
	"repro/internal/memsys"
	"repro/internal/sim"
)

// TSO-CC (Elver & Nagarajan, HPCA 2014) is a lazy consistency-directed
// coherence protocol for TSO. It deliberately violates the SWMR
// invariant: shared copies are not tracked and writers never invalidate
// readers. TSO is instead enforced by
//
//   - bounded reads: a Shared line may be read maxReads times before it
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
)

var tsoL1EventNames = [...]string{
	"Load", "Store", "Atomic", "Flush", "Replacement",
	"Data", "DataEx", "Fetch", "FetchInv", "WB_Ack",
}

// tsoL1Line is the per-line L1 state.
type tsoL1Line struct {
	l1Line
	state     tsoL1State
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
	wts    uint32
	wepoch uint32
	// invStamp is the core's self-invalidation count when the line's
	// GetS left (ISD).
	invStamp uint64
}

func (l *tsoL1Line) row() int      { return int(l.state) }
func (l *tsoL1Line) head() *l1Line { return &l.l1Line }

// tsoSeen is the last-seen timestamp record a core keeps per writer.
type tsoSeen struct {
	epoch uint32
	ts    uint32
}

// TSOCCL1 is one core's private L1 under TSO-CC.
type TSOCCL1 struct {
	l1ctl[TSOCCL1, tsoL1Line, *tsoL1Line]

	// Timestamp machinery (per core, §5.3).
	ts            uint32
	epoch         uint32
	writesInGroup int
	lastSeen      []tsoSeen
	// selfInvs counts self-invalidations, stamping each GetS.
	selfInvs uint64
}

type (
	tsoL1Ctx     = ctx[tsoL1Line]
	tsoL1Handler = func(c *TSOCCL1, x tsoL1Ctx)
)

// NewTSOCCL1 creates the controller and registers it on the network.
func NewTSOCCL1(s *sim.Sim, net *interconnect.Network, cfg Config, row, col int) (*TSOCCL1, error) {
	c := &TSOCCL1{lastSeen: make([]tsoSeen, cfg.Cores)}
	if err := c.build(c, &tsoccL1Kind, s, net, cfg, row, col); err != nil {
		return nil, err
	}
	return c, nil
}

// resetTimestamps rewinds the timestamp machinery on Reset (ResetCaches
// keeps it): a machine handed to a new campaign starts where a new
// machine does.
func (c *TSOCCL1) resetTimestamps() {
	c.ts, c.epoch, c.writesInGroup, c.selfInvs = 0, 0, 0, 0
	clear(c.lastSeen)
}

// Acquire implements CacheL1: the fence's acquire side is the same
// self-invalidation TSO-CC applies on RMWs — without it, explicit
// fences would not flush timestamp-stale Shared lines, and a po-later
// load could read a value older than writes ordered before the fence.
func (c *TSOCCL1) Acquire() { c.selfInvalidate() }

// tsGroup quantizes a timestamp into its timestamp group.
func tsGroup(ts uint32) uint32 { return ts / groupSize }

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
		selfInv := tsGroup(ts) >= tsGroup(seen.ts)
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
		selfInv := tsGroup(ts) > tsGroup(seen.ts)
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
// Requests deferred on a dropped line replay and miss. A line whose
// GetS is in flight is left to its fill, which sees the count moved
// (see the ISD row of the table).
func (c *TSOCCL1) selfInvalidate() {
	c.selfInvs++
	c.array.Range(func(addr memsys.Addr, line *tsoL1Line) bool {
		if line.state == tsoSH {
			c.removeLine(addr, line)
			c.invalNotify(addr)
		}
		return true
	})
}

// tsOnWrite advances the write-group timestamp machinery and triggers a
// reset broadcast when tsMax is exceeded.
func (c *TSOCCL1) tsOnWrite() {
	c.writesInGroup++
	if c.writesInGroup < groupSize {
		return
	}
	c.writesInGroup = 0
	c.ts++
	if c.ts <= tsMax {
		return
	}
	// Timestamp reset: new epoch, broadcast to all other cores.
	c.ts = 0
	c.epoch++
	for core := 0; core < c.cores; core++ {
		if core == c.id {
			continue
		}
		c.send(L1Node(core), interconnect.VNetForward, &Msg{
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

// performStore writes the store at the coherence point and completes it
// there and then: until the core learns the store performed it may
// forward from it, and a forward taken after the line was fetched away
// would never be squashed (no copy is left to invalidate).
func (c *TSOCCL1) performStore(line *tsoL1Line, op *Request) {
	line.data.SetWord(op.Addr, op.Val)
	line.dirty = true
	line.wts, line.wepoch = c.ts, c.epoch
	c.tsOnWrite()
	op.Done(op, 0, false)
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
