package coherence

import (
	"math/bits"

	"repro/internal/interconnect"
	"repro/internal/memsys"
	"repro/internal/sim"
)

// l2State enumerates the L2/directory states of one tile. The L2 is
// inclusive and tracks sharers exactly; transient "blocked" states hold a
// line while a request completes (Ruby-style), which is what makes the
// PUTX race window possible: a replacement PUTX from the old owner can
// arrive while the directory is blocked on a forwarded GETX (MT_MB).
type l2State uint8

const (
	l2NP   l2State = iota
	l2SS           // shared: L2 data valid, sharer set tracked
	l2MT           // owned by one L1; L2 data possibly stale
	l2IFS          // fetching from memory for a GETS
	l2IFX          // fetching from memory for a GETX
	l2BE           // granted exclusive data, waiting Unblock
	l2BX           // granted modified data, waiting Unblock
	l2MTSB         // forwarded GETS to owner, waiting WBData + Unblock
	l2MTMB         // forwarded GETX to owner, waiting Unblock
	l2SI           // evicting a shared line, collecting inv acks
	l2MTI          // evicting an owned line, recall outstanding
)

var l2StateNames = [...]string{
	"NP", "SS", "MT", "ISS", "IMX", "BE", "BX", "MT_SB", "MT_MB", "S_I", "MT_I",
}

// l2Event enumerates the L2 state machine inputs.
type l2Event uint8

const (
	l2GETS l2Event = iota
	l2GETX
	l2PUTS
	l2PUTE
	l2PUTX
	l2Unblock
	l2WBData
	l2RecallData
	l2RecallAck
	l2RecallStale
	l2InvAck
	l2MemData
	l2Replace
)

var l2EventNames = [...]string{
	"L1_GETS", "L1_GETX", "L1_PUTS", "L1_PUTE", "L1_PUTX", "Unblock",
	"WB_Data", "Recall_Data", "Recall_Ack", "Recall_Stale", "InvAck",
	"Mem_Data", "Replacement",
}

// mesiL2Line is the per-line directory state.
type mesiL2Line struct {
	state   l2State
	data    memsys.LineData
	dirty   bool // L2 data newer than memory
	sharers uint32
	owner   int
	// expectClean: the line was granted exclusive-clean (DataE) and the
	// directory has not seen data since; a silent E→M upgrade makes
	// this belief wrong, the Replace-Race setup.
	expectClean bool
	// reqCore is the requestor being served in transient states.
	reqCore int
	pending int // outstanding inv acks in S_I
	gotWB   bool
	gotUnb  bool
}

func (l *mesiL2Line) addSharer(core int)     { l.sharers |= 1 << uint(core) }
func (l *mesiL2Line) dropSharer(core int)    { l.sharers &^= 1 << uint(core) }
func (l *mesiL2Line) isSharer(core int) bool { return l.sharers&(1<<uint(core)) != 0 }
func (l *mesiL2Line) sharerCount() int       { return bits.OnesCount32(l.sharers) }

func (l *mesiL2Line) row() int { return int(l.state) }

// MESIL2 is one L2/directory tile.
type MESIL2 struct {
	ctl[MESIL2, mesiL2Line, *mesiL2Line]
}

type (
	l2Ctx     = ctx[mesiL2Line]
	l2Handler = func(c *MESIL2, x l2Ctx)
)

// NewMESIL2 creates tile cfg.ID's controller and registers it on the
// network.
func NewMESIL2(s *sim.Sim, net *interconnect.Network, cfg Config, row, col int) (*MESIL2, error) {
	c := new(MESIL2)
	if err := c.build(c, &mesiL2Kind, s, net, L2Node(cfg.ID), cfg, row, col); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *MESIL2) writeMem(addr memsys.Addr, data memsys.LineData) {
	c.send(MemNode, interconnect.VNetRequest,
		&Msg{Type: MsgMemWrite, Addr: addr, Data: data, Writer: -1})
}

func (c *MESIL2) readMem(addr memsys.Addr) {
	c.send(MemNode, interconnect.VNetRequest, &Msg{Type: MsgMemRead, Addr: addr})
}

// invalidateSharers sends Inv to every sharer except skip (-1 for none),
// directing acks at ackTo. Returns the number of invalidations sent.
func (c *MESIL2) invalidateSharers(x l2Ctx, skip int, ackTo interconnect.NodeID) int {
	n := 0
	for core := 0; core < c.cores; core++ {
		if core == skip || !x.line.isSharer(core) {
			continue
		}
		c.send(L1Node(core), interconnect.VNetForward,
			&Msg{Type: MsgInv, Addr: x.addr, AckTo: ackTo, Requestor: x.msg.Requestor})
		n++
	}
	return n
}
