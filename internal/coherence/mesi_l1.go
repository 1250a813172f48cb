package coherence

import (
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

// l1Event enumerates the inputs of the L1 state machine: CPU-side
// mandatory-queue events (first, in ReqKind order), the internal
// replacement event, and network messages.
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

// mesiL1Line is the per-line L1 state.
type mesiL1Line struct {
	l1Line
	state       l1State
	pendingAcks int
	haveData    bool
	// servedFwd records that a forwarded request was served while the
	// line's writeback was in flight (E_I/M_I), so a later PutStale
	// completes the writeback instead of waiting for a forward.
	servedFwd bool
}

func (l *mesiL1Line) row() int      { return int(l.state) }
func (l *mesiL1Line) head() *l1Line { return &l.l1Line }

// MESIL1 is one core's private L1 data cache controller.
type MESIL1 struct {
	l1ctl[MESIL1, mesiL1Line, *mesiL1Line]
}

type (
	l1Ctx     = ctx[mesiL1Line]
	l1Handler = func(c *MESIL1, x l1Ctx)
)

// NewMESIL1 creates the controller and registers it on the network at the
// core's mesh position.
func NewMESIL1(s *sim.Sim, net *interconnect.Network, cfg Config, row, col int) (*MESIL1, error) {
	c := new(MESIL1)
	if err := c.build(c, &mesiL1Kind, s, net, cfg, row, col); err != nil {
		return nil, err
	}
	return c, nil
}

// Acquire implements CacheL1. MESI invalidates eagerly — remote writes
// already invalidated any stale copy here — so a fence needs no cache
// action.
func (c *MESIL1) Acquire() {}

// --- helpers -------------------------------------------------------------

// notify forwards an invalidation of lineAddr to the LQ unless suppressed
// by the given bug flag — the §5.3 injection points.
func (c *MESIL1) notify(lineAddr memsys.Addr, suppressed bool) {
	if suppressed {
		return
	}
	c.invalNotify(lineAddr)
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
		&Msg{Type: MsgUnblock, Addr: addr, Requestor: c.id})
	c.settle(line)
}
