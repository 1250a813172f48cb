package coherence

import (
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

func (l *tsoL2Line) row() int { return int(l.state) }

// TSOCCL2 is one L2/directory tile under TSO-CC.
type TSOCCL2 struct {
	ctl[TSOCCL2, tsoL2Line, *tsoL2Line]
}

type (
	tsoL2Ctx     = ctx[tsoL2Line]
	tsoL2Handler = func(c *TSOCCL2, x tsoL2Ctx)
)

// NewTSOCCL2 creates tile cfg.ID's controller and registers it on the
// network.
func NewTSOCCL2(s *sim.Sim, net *interconnect.Network, cfg Config, row, col int) (*TSOCCL2, error) {
	c := new(TSOCCL2)
	if err := c.build(c, &tsoccL2Kind, s, net, L2Node(cfg.ID), cfg, row, col); err != nil {
		return nil, err
	}
	return c, nil
}

// writeMem writes data and timestamp metadata back to memory so the
// acquire rule keeps working across L2 evictions.
func (c *TSOCCL2) writeMem(x tsoL2Ctx) {
	c.send(MemNode, interconnect.VNetRequest, &Msg{
		Type: MsgMemWrite, Addr: x.addr, Data: x.line.data,
		Writer: x.line.writer, Ts: x.line.ts, Epoch: x.line.epoch,
	})
}

// respond sends a TData or TDataEx grant carrying the line's writer
// metadata, which the requestor's acquire rule reads.
func (c *TSOCCL2) respond(x tsoL2Ctx, core int, typ MsgType) {
	c.send(L1Node(core), interconnect.VNetResponse, &Msg{
		Type: typ, Addr: x.addr, Data: x.line.data,
		Writer: x.line.writer, Ts: x.line.ts, Epoch: x.line.epoch,
		AckCount: x.line.fetchSeq,
	})
}

// ackWB acknowledges a writeback and reports whether it came from the
// line's owner. Any other writeback is stale — its data was captured
// when that owner's generation resolved — and must not be absorbed.
func (c *TSOCCL2) ackWB(x tsoL2Ctx) bool {
	c.send(x.msg.Src, interconnect.VNetResponse, &Msg{Type: MsgTWBAck, Addr: x.addr})
	return x.msg.Src == L1Node(x.line.owner)
}

// absorb captures data and metadata from an owner's response.
func (c *TSOCCL2) absorb(x tsoL2Ctx) {
	x.line.data = x.msg.Data
	x.line.dirty = x.line.dirty || x.msg.Dirty
	x.line.writer = x.msg.Writer
	x.line.ts = x.msg.Ts
	x.line.epoch = x.msg.Epoch
}

// tsoccL2Kind is the TSO-CC L2/directory protocol.
var tsoccL2Kind kind[TSOCCL2, tsoL2Line, *tsoL2Line]

func initTSOCCL2() {
	recycleReq := func(c *TSOCCL2, x tsoL2Ctx) { c.recycle(x.msg) }
	dropMsg := func(c *TSOCCL2, x tsoL2Ctx) {}
	staleWB := func(c *TSOCCL2, x tsoL2Ctx) { c.ackWB(x) }

	table := [len(tsoL2StateNames)][len(tsoL2EventNames)]tsoL2Handler{
		// ---- NP ---------------------------------------------------
		tsoNP: {
			tGetS: func(c *TSOCCL2, x tsoL2Ctx) {
				x.line.state = tsoIFS
				x.line.reqCore = x.msg.Requestor
				c.send(MemNode, interconnect.VNetRequest, &Msg{Type: MsgMemRead, Addr: x.addr})
			},
			tGetX: func(c *TSOCCL2, x tsoL2Ctx) {
				x.line.state = tsoIFX
				x.line.reqCore = x.msg.Requestor
				c.send(MemNode, interconnect.VNetRequest, &Msg{Type: MsgMemRead, Addr: x.addr})
			},
			// A writeback reaching an absent line is stale: the owner's
			// data was already captured when its ownership generation
			// resolved. Absorbing (or writing memory) here would
			// overwrite newer data with older data.
			tWB:       staleWB,
			tFetchAck: dropMsg, // stale
		},

		// ---- IFS --------------------------------------------------
		tsoIFS: {
			tMemData: func(c *TSOCCL2, x tsoL2Ctx) {
				c.absorb(x)
				x.line.dirty = false
				x.line.state = tsoTV
				c.respond(x, x.line.reqCore, MsgTData)
			},
			tGetS: recycleReq,
			tGetX: recycleReq,
			// The line was absent when this request allocated it, so no
			// owner exists in this allocation: the writeback is from an
			// earlier one, as at NP, one request later. That owner sent
			// it from WB_I, where it answers fetches from the copy it
			// wrote back, so its generation closed on a FetchAck carrying
			// this same data (FO, FOX or FO_I). The line then left the L2
			// through an eviction that wrote the data to memory (FO_I
			// always, V when dirty) before removing it, and the memory
			// read this state waits for follows that write on the same
			// channel. Ack it so the L1 leaves WB_I; absorb nothing.
			tWB:       staleWB,
			tFetchAck: dropMsg, // stale ack from a closed fetch generation
		},

		// ---- IFX --------------------------------------------------
		tsoIFX: {
			tMemData: func(c *TSOCCL2, x tsoL2Ctx) {
				c.absorb(x)
				x.line.dirty = false
				x.line.owner = x.line.reqCore
				x.line.state = tsoTX
				c.respond(x, x.line.reqCore, MsgTDataEx)
			},
			tGetS: recycleReq,
			tGetX: recycleReq,
			// Stale, as at IFS: the requestor becomes owner only with the
			// memory data, so no writeback can be its own yet.
			tWB:       staleWB,
			tFetchAck: dropMsg, // stale ack from a closed fetch generation
		},

		// ---- V ----------------------------------------------------
		tsoTV: {
			tGetS: func(c *TSOCCL2, x tsoL2Ctx) {
				c.respond(x, x.msg.Requestor, MsgTData)
			},
			tGetX: func(c *TSOCCL2, x tsoL2Ctx) {
				x.line.owner = x.msg.Requestor
				x.line.state = tsoTX
				c.respond(x, x.msg.Requestor, MsgTDataEx)
			},
			// Stale writeback (the fetch-ack path already captured this
			// data, and the line may have been rewritten by a newer
			// owner since): ack without absorbing.
			tWB:       staleWB,
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
					&Msg{Type: MsgTFetch, Addr: x.addr, AckCount: x.line.fetchSeq})
			},
			tGetX: func(c *TSOCCL2, x tsoL2Ctx) {
				x.line.state = tsoFOX
				x.line.reqCore = x.msg.Requestor
				x.line.fetchSeq++
				c.send(L1Node(x.line.owner), interconnect.VNetForward,
					&Msg{Type: MsgTFetchInv, Addr: x.addr, AckCount: x.line.fetchSeq})
			},
			tWB: func(c *TSOCCL2, x tsoL2Ctx) {
				if c.ackWB(x) {
					c.absorb(x)
					x.line.owner = -1
					x.line.state = tsoTV
				}
			},
			tFetchAck: dropMsg, // late ack after a WB race
			tL2Replace: func(c *TSOCCL2, x tsoL2Ctx) {
				x.line.state = tsoFOI
				x.line.fetchSeq++
				c.send(L1Node(x.line.owner), interconnect.VNetForward,
					&Msg{Type: MsgTFetchInv, Addr: x.addr, AckCount: x.line.fetchSeq})
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
				c.respond(x, x.line.reqCore, MsgTData)
			},
			tWB: func(c *TSOCCL2, x tsoL2Ctx) {
				// The owner replaced the line while our fetch was in
				// flight; its writeback doubles as the fetch response.
				// A writeback from an earlier owner is stale.
				if c.ackWB(x) {
					c.absorb(x)
					x.line.owner = -1
					x.line.state = tsoTV
					c.respond(x, x.line.reqCore, MsgTData)
				}
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
				c.respond(x, x.line.reqCore, MsgTDataEx)
			},
			tWB: func(c *TSOCCL2, x tsoL2Ctx) {
				if !c.ackWB(x) {
					return
				}
				c.absorb(x)
				x.line.owner = x.line.reqCore
				x.line.state = tsoTX
				c.respond(x, x.line.reqCore, MsgTDataEx)
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
				if !c.ackWB(x) {
					return
				}
				c.absorb(x)
				c.writeMem(x)
				c.array.Remove(x.addr)
			},
			tGetS: recycleReq,
			tGetX: recycleReq,
		},
	}

	tsoccL2Kind = kind[TSOCCL2, tsoL2Line, *tsoL2Line]{
		controller: "L2Cache", states: tsoL2StateNames[:], events: tsoL2EventNames[:],
		msgEvent: routes(map[MsgType]tsoL2Event{
			MsgTGetS: tGetS, MsgTGetX: tGetX, MsgTWB: tWB, MsgTFetchAck: tFetchAck, MsgMemData: tMemData,
		}),
		request:      [numMsgTypes]bool{MsgTGetS: true, MsgTGetX: true},
		replace:      int(tL2Replace),
		stable:       1<<tsoTV | 1<<tsoTX,
		blank:        tsoL2Line{state: tsoNP, owner: -1, writer: -1},
		recycleNet:   interconnect.VNetRequest,
		recycleDelay: recycleDelay,
	}
	for s := range table {
		tsoccL2Kind.table = append(tsoccL2Kind.table, table[s][:]...)
	}
}
