package coherence

import (
	"fmt"
	"math/bits"

	"repro/internal/bugs"
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

func (s l2State) String() string { return l2StateNames[s] }

func (s l2State) stable() bool { return s == l2SS || s == l2MT }

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

func (e l2Event) String() string { return l2EventNames[e] }

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

// MESIL2 is one L2/directory tile.
type MESIL2 struct {
	tile  int
	cores int
	array *Array[mesiL2Line]
	sim   *sim.Sim
	net   *interconnect.Network
	msgs  *MsgPool
	bugs  bugs.Set
	// covRec is the interned coverage front end (see MESIL1).
	covRec covRecorder
	errs   ErrorSink
	// absent stands in for the line of a message whose line is not
	// present (see MESIL1).
	absent mesiL2Line

	// AccessLatency is the tile's tag+data access latency; together
	// with routing it lands L2 round trips in Table 2's 30–80 band.
	AccessLatency sim.Tick
	// RecycleDelay spaces retries of requests that hit blocked lines.
	RecycleDelay sim.Tick

	// processH is the pre-bound access-latency callback: requests pay
	// the tile latency through the kernel's zero-alloc path with the
	// message as the event argument.
	processH sim.Handler
}

// MESIL2Config configures an L2 tile.
type MESIL2Config struct {
	Tile  int
	Cores int
	// SizeBytes/Ways give the per-tile geometry (Table 2: 128KB 4-way).
	SizeBytes, Ways int
	Bugs            bugs.Set
	Coverage        CoverageSink
	Errors          ErrorSink
	// Msgs is the machine's shared message pool; nil gives the
	// controller a private one.
	Msgs *MsgPool
}

// NewMESIL2 creates the tile controller and registers it on the network.
func NewMESIL2(s *sim.Sim, net *interconnect.Network, cfg MESIL2Config, row, col int) (*MESIL2, error) {
	sets, ways := GeomFor(cfg.SizeBytes, cfg.Ways)
	c := &MESIL2{
		tile:          cfg.Tile,
		cores:         cfg.Cores,
		array:         NewArray[mesiL2Line](sets, ways),
		sim:           s,
		net:           net,
		msgs:          cfg.Msgs,
		bugs:          cfg.Bugs,
		covRec:        newCovRecorder("L2Cache", l2StateNames[:], l2EventNames[:], mesiL2Keys),
		AccessLatency: 18,
		RecycleDelay:  10,
	}
	c.processH = func(arg any, _ uint64) { c.process(arg.(*Msg)) }
	if c.msgs == nil {
		c.msgs = NewMsgPool()
	}
	c.Reset(cfg.Coverage, cfg.Errors)
	if err := net.Register(L2Node(cfg.Tile), c, row, col); err != nil {
		return nil, err
	}
	return c, nil
}

// Reset returns the tile to its just-built state, reporting to cov and
// errs from now on (see MESIL1.Reset).
func (c *MESIL2) Reset(cov CoverageSink, errs ErrorSink) {
	c.covRec.bind(cov)
	c.errs = errorSink(errs)
	c.array.Reset()
}

// ResetCaches drops all tile state (reset_test_mem support).
func (c *MESIL2) ResetCaches() { c.array.Clear() }

func (c *MESIL2) node() interconnect.NodeID { return L2Node(c.tile) }

// Deliver implements interconnect.Handler. Requests pay the tile access
// latency before processing; responses and unblocks process immediately.
func (c *MESIL2) Deliver(vnet interconnect.VNet, payload interface{}) {
	msg := payload.(*Msg)
	switch msg.Type {
	case MsgGETS, MsgGETX:
		c.sim.ScheduleEvent(c.AccessLatency, c.processH, msg, 0)
	default:
		c.process(msg)
	}
}

// process runs one message through the state machine and releases it
// (a recycled request stays in flight).
func (c *MESIL2) process(msg *Msg) {
	defer c.msgs.release(msg)
	lineAddr := msg.Addr.LineAddr()
	line, ok := c.array.Peek(lineAddr)
	if !ok {
		switch msg.Type {
		case MsgGETS, MsgGETX:
			var retry bool
			line, retry = c.allocate(lineAddr)
			if line == nil {
				if retry {
					c.recycle(msg)
				}
				return
			}
		default:
			c.absent = mesiL2Line{state: l2NP, owner: -1}
			line = &c.absent
		}
	}
	ev, ok := l2MsgEvent(msg.Type)
	if !ok {
		panic(fmt.Sprintf("mesi l2: unroutable message %s", msg))
	}
	c.dispatch(ev, lineAddr, line, msg)
}

func l2MsgEvent(t MsgType) (l2Event, bool) {
	switch t {
	case MsgGETS:
		return l2GETS, true
	case MsgGETX:
		return l2GETX, true
	case MsgPUTS:
		return l2PUTS, true
	case MsgPUTE:
		return l2PUTE, true
	case MsgPUTX:
		return l2PUTX, true
	case MsgUnblock:
		return l2Unblock, true
	case MsgWBData:
		return l2WBData, true
	case MsgRecallData:
		return l2RecallData, true
	case MsgRecallAck:
		return l2RecallAck, true
	case MsgRecallStale:
		return l2RecallStale, true
	case MsgInvAck:
		return l2InvAck, true
	case MsgMemData:
		return l2MemData, true
	default:
		return 0, false
	}
}

// allocate makes room for a new line, evicting the LRU stable line if
// needed. Returns (nil, true) when the request must be recycled.
func (c *MESIL2) allocate(lineAddr memsys.Addr) (*mesiL2Line, bool) {
	if !c.array.HasFree(lineAddr) {
		vAddr, vLine, ok := c.array.Victim(lineAddr, mesiL2Evictable)
		if !ok {
			return nil, true
		}
		c.dispatch(l2Replace, vAddr, vLine, nil)
		if !c.array.HasFree(lineAddr) {
			return nil, true
		}
	}
	line := c.array.Insert(lineAddr)
	line.state = l2NP
	line.owner = -1
	return line, false
}

func mesiL2Evictable(l *mesiL2Line) bool { return l.state.stable() }

func (c *MESIL2) recycle(msg *Msg) {
	c.net.LocalDeliver(c.node(), interconnect.VNetRequest, c.RecycleDelay, msg.requeue())
}

type l2Ctx struct {
	addr memsys.Addr
	line *mesiL2Line
	msg  *Msg
}

type l2Handler func(c *MESIL2, x l2Ctx)

func (c *MESIL2) dispatch(ev l2Event, addr memsys.Addr, line *mesiL2Line, msg *Msg) {
	h := mesiL2Table[line.state][ev]
	if h == nil {
		c.errs.ProtocolError(&InvalidTransitionError{
			Controller: "L2Cache",
			State:      line.state.String(),
			Event:      ev.String(),
			Addr:       addr,
		})
		return
	}
	c.covRec.record(int(line.state), int(ev))
	h(c, l2Ctx{addr: addr, line: line, msg: msg})
}

func (c *MESIL2) send(dst interconnect.NodeID, vnet interconnect.VNet, m Msg) {
	m.Src = c.node()
	c.net.Send(c.node(), dst, vnet, c.msgs.alloc(m))
}

func (c *MESIL2) writeMem(addr memsys.Addr, data memsys.LineData) {
	c.send(MemNode, interconnect.VNetRequest,
		Msg{Type: MsgMemWrite, Addr: addr, Data: data, Writer: -1})
}

func (c *MESIL2) readMem(addr memsys.Addr) {
	c.send(MemNode, interconnect.VNetRequest, Msg{Type: MsgMemRead, Addr: addr})
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
			Msg{Type: MsgInv, Addr: x.addr, AckTo: ackTo, Requestor: x.msg.Requestor})
		n++
	}
	return n
}
