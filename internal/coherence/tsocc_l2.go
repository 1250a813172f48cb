package coherence

import (
	"fmt"

	"repro/internal/bugs"
	"repro/internal/interconnect"
	"repro/internal/memsys"
	"repro/internal/sim"
)

// tsoL2State enumerates the TSO-CC L2/directory states. TSO-CC tracks
// only the exclusive owner (if any) — shared copies are untracked, which
// is the deliberate SWMR violation.
type tsoL2State uint8

const (
	tsoNP  tsoL2State = iota
	tsoTV             // valid data, no exclusive owner
	tsoTX             // exclusive owner
	tsoIFS            // memory fetch for a GetS
	tsoIFX            // memory fetch for a GetX
	tsoFO             // fetching from owner for a GetS
	tsoFOX            // fetching from owner for a GetX
	tsoFOI            // fetching from owner for an L2 eviction
)

var tsoL2StateNames = [...]string{"NP", "V", "X", "IFS", "IFX", "FO", "FOX", "FO_I"}

func (s tsoL2State) String() string { return tsoL2StateNames[s] }

func (s tsoL2State) stable() bool { return s == tsoTV || s == tsoTX }

type tsoL2Event uint8

const (
	tGetS tsoL2Event = iota
	tGetX
	tWB
	tFetchAck
	tMemData
	tL2Replace
)

var tsoL2EventNames = [...]string{
	"GetS", "GetX", "WB", "FetchAck", "Mem_Data", "Replacement",
}

func (e tsoL2Event) String() string { return tsoL2EventNames[e] }

// tsoL2Line is the per-line directory state, carrying the last writer's
// timestamp metadata served with every data response.
type tsoL2Line struct {
	state   tsoL2State
	data    memsys.LineData
	dirty   bool
	writer  int
	ts      uint32
	epoch   uint32
	owner   int
	reqCore int
	// fetchSeq correlates owner fetches with their acks: a TFetchAck
	// whose echoed sequence does not match the line's current fetch is
	// stale (its generation already resolved through a writeback) and
	// must be dropped, not absorbed.
	fetchSeq int
}

// TSOCCL2 is one L2/directory tile under TSO-CC.
type TSOCCL2 struct {
	tile  int
	cores int
	array *Array[tsoL2Line]
	sim   *sim.Sim
	net   *interconnect.Network
	msgs  *MsgPool
	bugs  bugs.Set
	// covRec is the interned coverage front end (see MESIL1).
	covRec covRecorder
	errs   ErrorSink
	// absent stands in for the line of a message whose line is not
	// present (see MESIL1).
	absent tsoL2Line

	AccessLatency sim.Tick
	RecycleDelay  sim.Tick

	// processH is the pre-bound access-latency callback (see MESIL2).
	processH sim.Handler
}

// TSOCCL2Config configures a TSO-CC L2 tile.
type TSOCCL2Config struct {
	Tile            int
	Cores           int
	SizeBytes, Ways int
	Bugs            bugs.Set
	Coverage        CoverageSink
	Errors          ErrorSink
	// Msgs is the machine's shared message pool; nil gives the
	// controller a private one.
	Msgs *MsgPool
}

// NewTSOCCL2 creates the tile and registers it on the network.
func NewTSOCCL2(s *sim.Sim, net *interconnect.Network, cfg TSOCCL2Config, row, col int) (*TSOCCL2, error) {
	sets, ways := GeomFor(cfg.SizeBytes, cfg.Ways)
	c := &TSOCCL2{
		tile:          cfg.Tile,
		cores:         cfg.Cores,
		array:         NewArray[tsoL2Line](sets, ways),
		sim:           s,
		net:           net,
		msgs:          cfg.Msgs,
		bugs:          cfg.Bugs,
		covRec:        newCovRecorder("L2Cache", tsoL2StateNames[:], tsoL2EventNames[:], tsoccL2Keys),
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
func (c *TSOCCL2) Reset(cov CoverageSink, errs ErrorSink) {
	c.covRec.bind(cov)
	c.errs = errorSink(errs)
	c.array.Reset()
}

// ResetCaches drops all tile state.
func (c *TSOCCL2) ResetCaches() { c.array.Clear() }

func (c *TSOCCL2) node() interconnect.NodeID { return L2Node(c.tile) }

// Deliver implements interconnect.Handler.
func (c *TSOCCL2) Deliver(vnet interconnect.VNet, payload interface{}) {
	msg := payload.(*Msg)
	switch msg.Type {
	case MsgTGetS, MsgTGetX:
		c.sim.ScheduleEvent(c.AccessLatency, c.processH, msg, 0)
	default:
		c.process(msg)
	}
}

// process runs one message through the state machine and releases it
// (a recycled request stays in flight).
func (c *TSOCCL2) process(msg *Msg) {
	defer c.msgs.release(msg)
	lineAddr := msg.Addr.LineAddr()
	line, ok := c.array.Peek(lineAddr)
	if !ok {
		switch msg.Type {
		case MsgTGetS, MsgTGetX:
			var retry bool
			line, retry = c.allocate(lineAddr)
			if line == nil {
				if retry {
					c.recycle(msg)
				}
				return
			}
		default:
			c.absent = tsoL2Line{state: tsoNP, owner: -1, writer: -1}
			line = &c.absent
		}
	}
	ev, ok := tsoL2MsgEvent(msg.Type)
	if !ok {
		panic(fmt.Sprintf("tsocc l2: unroutable message %s", msg))
	}
	c.dispatch(ev, lineAddr, line, msg)
}

func tsoL2MsgEvent(t MsgType) (tsoL2Event, bool) {
	switch t {
	case MsgTGetS:
		return tGetS, true
	case MsgTGetX:
		return tGetX, true
	case MsgTWB:
		return tWB, true
	case MsgTFetchAck:
		return tFetchAck, true
	case MsgMemData:
		return tMemData, true
	default:
		return 0, false
	}
}

func (c *TSOCCL2) allocate(lineAddr memsys.Addr) (*tsoL2Line, bool) {
	if !c.array.HasFree(lineAddr) {
		vAddr, vLine, ok := c.array.Victim(lineAddr, tsoL2Evictable)
		if !ok {
			return nil, true
		}
		c.dispatch(tL2Replace, vAddr, vLine, nil)
		if !c.array.HasFree(lineAddr) {
			return nil, true
		}
	}
	line := c.array.Insert(lineAddr)
	line.state = tsoNP
	line.owner = -1
	line.writer = -1
	return line, false
}

func tsoL2Evictable(l *tsoL2Line) bool { return l.state.stable() }

func (c *TSOCCL2) recycle(msg *Msg) {
	c.net.LocalDeliver(c.node(), interconnect.VNetRequest, c.RecycleDelay, msg.requeue())
}

type tsoL2Ctx struct {
	addr memsys.Addr
	line *tsoL2Line
	msg  *Msg
}

type tsoL2Handler func(c *TSOCCL2, x tsoL2Ctx)

func (c *TSOCCL2) dispatch(ev tsoL2Event, addr memsys.Addr, line *tsoL2Line, msg *Msg) {
	h := tsoccL2Table[line.state][ev]
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
	h(c, tsoL2Ctx{addr: addr, line: line, msg: msg})
}

func (c *TSOCCL2) send(dst interconnect.NodeID, vnet interconnect.VNet, m Msg) {
	m.Src = c.node()
	c.net.Send(c.node(), dst, vnet, c.msgs.alloc(m))
}

// writeMem writes data and timestamp metadata back to memory so the
// acquire rule keeps working across L2 evictions.
func (c *TSOCCL2) writeMem(x tsoL2Ctx) {
	c.send(MemNode, interconnect.VNetRequest, Msg{
		Type: MsgMemWrite, Addr: x.addr, Data: x.line.data,
		Writer: x.line.writer, Ts: x.line.ts, Epoch: x.line.epoch,
	})
}

// respondData sends a TData with the line's writer metadata.
func (c *TSOCCL2) respondData(x tsoL2Ctx, core int) {
	c.send(L1Node(core), interconnect.VNetResponse, Msg{
		Type: MsgTData, Addr: x.addr, Data: x.line.data,
		Writer: x.line.writer, Ts: x.line.ts, Epoch: x.line.epoch,
		AckCount: x.line.fetchSeq,
	})
}

func (c *TSOCCL2) respondDataEx(x tsoL2Ctx, core int) {
	c.send(L1Node(core), interconnect.VNetResponse, Msg{
		Type: MsgTDataEx, Addr: x.addr, Data: x.line.data,
		AckCount: x.line.fetchSeq,
	})
}

// absorb captures data and metadata from an owner's response.
func (c *TSOCCL2) absorb(x tsoL2Ctx) {
	x.line.data = x.msg.Data
	x.line.dirty = x.line.dirty || x.msg.Dirty
	x.line.writer = x.msg.Writer
	x.line.ts = x.msg.Ts
	x.line.epoch = x.msg.Epoch
}

// tsoccL2Table is the complete TSO-CC L2 transition table, a dense
// [state][event] array filled once at package init (see mesiL1Table).
var tsoccL2Table [len(tsoL2StateNames)][len(tsoL2EventNames)]tsoL2Handler

// tsoccL2Keys is the table's vocabulary in (state, event) order.
var tsoccL2Keys []internKey

func init() {
	recycleReq := func(c *TSOCCL2, x tsoL2Ctx) { c.recycle(x.msg) }
	dropMsg := func(c *TSOCCL2, x tsoL2Ctx) {}

	tsoccL2Table = [len(tsoL2StateNames)][len(tsoL2EventNames)]tsoL2Handler{
		// ---- NP ---------------------------------------------------
		tsoNP: {
			tGetS: func(c *TSOCCL2, x tsoL2Ctx) {
				x.line.state = tsoIFS
				x.line.reqCore = x.msg.Requestor
				c.send(MemNode, interconnect.VNetRequest, Msg{Type: MsgMemRead, Addr: x.addr})
			},
			tGetX: func(c *TSOCCL2, x tsoL2Ctx) {
				x.line.state = tsoIFX
				x.line.reqCore = x.msg.Requestor
				c.send(MemNode, interconnect.VNetRequest, Msg{Type: MsgMemRead, Addr: x.addr})
			},
			tWB: func(c *TSOCCL2, x tsoL2Ctx) {
				// A writeback reaching an absent line is stale: the
				// owner's data was already captured when its ownership
				// generation resolved. Absorbing (or writing memory)
				// here would overwrite newer data with older data.
				c.send(x.msg.Src, interconnect.VNetResponse, Msg{Type: MsgTWBAck, Addr: x.addr})
			},
			tFetchAck: dropMsg, // stale
		},

		// ---- IFS --------------------------------------------------
		tsoIFS: {
			tMemData: func(c *TSOCCL2, x tsoL2Ctx) {
				c.absorb(x)
				x.line.dirty = false
				x.line.state = tsoTV
				c.respondData(x, x.line.reqCore)
			},
			tGetS:     recycleReq,
			tGetX:     recycleReq,
			tFetchAck: dropMsg, // stale ack from a closed fetch generation
		},

		// ---- IFX --------------------------------------------------
		tsoIFX: {
			tMemData: func(c *TSOCCL2, x tsoL2Ctx) {
				c.absorb(x)
				x.line.dirty = false
				x.line.owner = x.line.reqCore
				x.line.state = tsoTX
				c.respondDataEx(x, x.line.reqCore)
			},
			tGetS:     recycleReq,
			tGetX:     recycleReq,
			tFetchAck: dropMsg, // stale ack from a closed fetch generation
		},

		// ---- V ----------------------------------------------------
		tsoTV: {
			tGetS: func(c *TSOCCL2, x tsoL2Ctx) {
				c.respondData(x, x.msg.Requestor)
			},
			tGetX: func(c *TSOCCL2, x tsoL2Ctx) {
				x.line.owner = x.msg.Requestor
				x.line.state = tsoTX
				c.respondDataEx(x, x.msg.Requestor)
			},
			tWB: func(c *TSOCCL2, x tsoL2Ctx) {
				// Stale writeback (the fetch-ack path already captured
				// this data, and the line may have been rewritten by a
				// newer owner since): ack without absorbing.
				c.send(x.msg.Src, interconnect.VNetResponse, Msg{Type: MsgTWBAck, Addr: x.addr})
			},
			tFetchAck: dropMsg, // late ack after a WB race
			tL2Replace: func(c *TSOCCL2, x tsoL2Ctx) {
				if x.line.dirty {
					c.writeMem(x)
				}
				c.array.Remove(x.addr)
			},
		},

		// ---- X ----------------------------------------------------
		tsoTX: {
			tGetS: func(c *TSOCCL2, x tsoL2Ctx) {
				x.line.state = tsoFO
				x.line.reqCore = x.msg.Requestor
				x.line.fetchSeq++
				c.send(L1Node(x.line.owner), interconnect.VNetForward,
					Msg{Type: MsgTFetch, Addr: x.addr, AckCount: x.line.fetchSeq})
			},
			tGetX: func(c *TSOCCL2, x tsoL2Ctx) {
				x.line.state = tsoFOX
				x.line.reqCore = x.msg.Requestor
				x.line.fetchSeq++
				c.send(L1Node(x.line.owner), interconnect.VNetForward,
					Msg{Type: MsgTFetchInv, Addr: x.addr, AckCount: x.line.fetchSeq})
			},
			tWB: func(c *TSOCCL2, x tsoL2Ctx) {
				if x.msg.Src != L1Node(x.line.owner) {
					c.send(x.msg.Src, interconnect.VNetResponse, Msg{Type: MsgTWBAck, Addr: x.addr})
					return
				}
				c.absorb(x)
				x.line.owner = -1
				x.line.state = tsoTV
				c.send(x.msg.Src, interconnect.VNetResponse, Msg{Type: MsgTWBAck, Addr: x.addr})
			},
			tFetchAck: dropMsg, // late ack after a WB race
			tL2Replace: func(c *TSOCCL2, x tsoL2Ctx) {
				x.line.state = tsoFOI
				x.line.fetchSeq++
				c.send(L1Node(x.line.owner), interconnect.VNetForward,
					Msg{Type: MsgTFetchInv, Addr: x.addr, AckCount: x.line.fetchSeq})
			},
		},

		// ---- FO (owner fetch for GetS) ----------------------------
		tsoFO: {
			tFetchAck: func(c *TSOCCL2, x tsoL2Ctx) {
				if x.msg.AckCount != x.line.fetchSeq {
					return // stale generation
				}
				c.absorb(x)
				x.line.owner = -1
				x.line.state = tsoTV
				c.respondData(x, x.line.reqCore)
			},
			tWB: func(c *TSOCCL2, x tsoL2Ctx) {
				// The owner replaced the line while our fetch was in
				// flight; its writeback doubles as the fetch response.
				c.absorb(x)
				c.send(x.msg.Src, interconnect.VNetResponse, Msg{Type: MsgTWBAck, Addr: x.addr})
				x.line.owner = -1
				x.line.state = tsoTV
				c.respondData(x, x.line.reqCore)
			},
			tGetS: recycleReq,
			tGetX: recycleReq,
		},

		// ---- FOX (owner fetch for GetX) ---------------------------
		tsoFOX: {
			tFetchAck: func(c *TSOCCL2, x tsoL2Ctx) {
				if x.msg.AckCount != x.line.fetchSeq {
					return // stale generation
				}
				c.absorb(x)
				x.line.owner = x.line.reqCore
				x.line.state = tsoTX
				c.respondDataEx(x, x.line.reqCore)
			},
			tWB: func(c *TSOCCL2, x tsoL2Ctx) {
				c.absorb(x)
				c.send(x.msg.Src, interconnect.VNetResponse, Msg{Type: MsgTWBAck, Addr: x.addr})
				x.line.owner = x.line.reqCore
				x.line.state = tsoTX
				c.respondDataEx(x, x.line.reqCore)
			},
			tGetS: recycleReq,
			tGetX: recycleReq,
		},

		// ---- FO_I (owner fetch for L2 eviction) -------------------
		tsoFOI: {
			tFetchAck: func(c *TSOCCL2, x tsoL2Ctx) {
				if x.msg.AckCount != x.line.fetchSeq {
					return // stale generation
				}
				c.absorb(x)
				c.writeMem(x)
				c.array.Remove(x.addr)
			},
			tWB: func(c *TSOCCL2, x tsoL2Ctx) {
				c.absorb(x)
				c.send(x.msg.Src, interconnect.VNetResponse, Msg{Type: MsgTWBAck, Addr: x.addr})
				c.writeMem(x)
				c.array.Remove(x.addr)
			},
			tGetS: recycleReq,
			tGetX: recycleReq,
		},
	}

	tsoccL2Keys = tableKeys(len(tsoL2StateNames), len(tsoL2EventNames),
		func(s, e int) bool { return tsoccL2Table[s][e] != nil })
}

// TSOCCL2Transitions enumerates the TSO-CC L2 transition table.
func TSOCCL2Transitions() []Transition {
	return keyTransitions("L2Cache", tsoccL2Keys, tsoL2StateNames[:], tsoL2EventNames[:])
}

// TSOCCTransitions enumerates the full TSO-CC transition table, the
// Table 6 coverage denominator for the TSO-CC rows.
func TSOCCTransitions() []Transition {
	return append(TSOCCL1Transitions(), TSOCCL2Transitions()...)
}
