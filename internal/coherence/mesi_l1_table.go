package coherence

import "repro/internal/interconnect"

// mesiL1Kind is the MESI L1 protocol. Its table is the complete L1
// transition table: every entry is one coverage unit; a (state, event)
// pair without an entry is an invalid transition. Defensive entries that
// are unreachable in the fixed protocol (e.g. Inv in M) are deliberately
// present, mirroring Ruby controllers whose never-covered transitions
// keep Table 6's maxima below 100%.
var mesiL1Kind kind[MESIL1, mesiL1Line, *mesiL1Line]

func initMESIL1() {
	table := [len(l1StateNames)][len(l1EventNames)]l1Handler{
		// ---- I ----------------------------------------------------
		l1I: {
			l1Load: func(c *MESIL1, x l1Ctx) {
				x.line.state = l1IS
				x.line.primary = x.op
				c.send(c.homeTile(x.addr), interconnect.VNetRequest,
					&Msg{Type: MsgGETS, Addr: x.addr, Requestor: c.id})
			},
			l1Store:  l1StartGETX,
			l1Atomic: l1StartGETX,
			l1Inv: func(c *MESIL1, x l1Ctx) {
				// We already replaced the line; the requestor still
				// needs its ack.
				c.send(x.msg.AckTo, interconnect.VNetResponse,
					&Msg{Type: MsgInvAck, Addr: x.addr})
			},
			l1Recall: func(c *MESIL1, x l1Ctx) {
				c.send(c.homeTile(x.addr), interconnect.VNetResponse,
					&Msg{Type: MsgRecallStale, Addr: x.addr})
			},
		},

		// ---- S ----------------------------------------------------
		l1S: {
			l1Load:   l1Hit,
			l1Store:  l1UpgradeFromS,
			l1Atomic: l1UpgradeFromS,
			l1Flush: func(c *MESIL1, x l1Ctx) {
				c.send(c.homeTile(x.addr), interconnect.VNetRequest,
					&Msg{Type: MsgPUTS, Addr: x.addr, Requestor: c.id})
				// A flushed line leaves the cache: later remote writes
				// will not be forwarded here, so the LQ must be told
				// (own flushes are never bug-gated).
				c.notify(x.addr, false)
				c.sim.ScheduleEvent(hitLatency, requestDone, x.op, 0)
				c.removeLine(x.addr, x.line)
			},
			l1Replace: func(c *MESIL1, x l1Ctx) {
				c.send(c.homeTile(x.addr), interconnect.VNetRequest,
					&Msg{Type: MsgPUTS, Addr: x.addr, Requestor: c.id})
				// Bug MESI,LQ+S,Replacement: the replacement fails to
				// notify the LQ.
				c.notify(x.addr, c.bugs.MESILQSRepl)
				c.removeLine(x.addr, x.line)
			},
			l1Inv: func(c *MESIL1, x l1Ctx) {
				c.send(x.msg.AckTo, interconnect.VNetResponse,
					&Msg{Type: MsgInvAck, Addr: x.addr})
				c.notify(x.addr, false)
				c.removeLine(x.addr, x.line)
			},
		},

		// ---- E ----------------------------------------------------
		l1E: {
			l1Load: l1Hit,
			l1Store: func(c *MESIL1, x l1Ctx) {
				// Silent E→M upgrade: the L2 keeps believing the line
				// is clean (expectClean), the Replace-Race setup.
				x.line.state = l1M
				c.performStore(x.line, x.op)
			},
			l1Atomic: func(c *MESIL1, x l1Ctx) {
				x.line.state = l1M
				c.performAtomic(x.line, x.op)
			},
			l1Flush: func(c *MESIL1, x l1Ctx) {
				x.line.state = l1EI
				c.send(c.homeTile(x.addr), interconnect.VNetRequest,
					&Msg{Type: MsgPUTE, Addr: x.addr, Requestor: c.id})
				c.notify(x.addr, false)
				c.sim.ScheduleEvent(hitLatency, requestDone, x.op, 0)
			},
			l1Replace: func(c *MESIL1, x l1Ctx) {
				x.line.state = l1EI
				c.send(c.homeTile(x.addr), interconnect.VNetRequest,
					&Msg{Type: MsgPUTE, Addr: x.addr, Requestor: c.id})
				c.notify(x.addr, false)
			},
			l1Inv: func(c *MESIL1, x l1Ctx) { // defensive
				c.send(x.msg.AckTo, interconnect.VNetResponse,
					&Msg{Type: MsgInvAck, Addr: x.addr})
				c.notify(x.addr, c.bugs.MESILQEInv)
				c.removeLine(x.addr, x.line)
			},
			l1FwdGETS: func(c *MESIL1, x l1Ctx) {
				x.line.state = l1S
				c.send(L1Node(x.msg.Requestor), interconnect.VNetResponse,
					&Msg{Type: MsgDataSB, Addr: x.addr, Data: x.line.data})
				c.send(c.homeTile(x.addr), interconnect.VNetResponse,
					&Msg{Type: MsgWBData, Addr: x.addr, Data: x.line.data, Dirty: false, Requestor: c.id})
			},
			l1FwdGETX: func(c *MESIL1, x l1Ctx) {
				c.send(L1Node(x.msg.Requestor), interconnect.VNetResponse,
					&Msg{Type: MsgDataM, Addr: x.addr, Data: x.line.data, AckCount: 0})
				// Bug MESI,LQ+E,Inv: invalidation in E not forwarded
				// to the LQ.
				c.notify(x.addr, c.bugs.MESILQEInv)
				c.removeLine(x.addr, x.line)
			},
			l1Recall: func(c *MESIL1, x l1Ctx) {
				c.send(c.homeTile(x.addr), interconnect.VNetResponse,
					&Msg{Type: MsgRecallAck, Addr: x.addr})
				c.notify(x.addr, c.bugs.MESILQEInv)
				c.removeLine(x.addr, x.line)
			},
		},

		// ---- M ----------------------------------------------------
		l1M: {
			l1Load: l1Hit,
			l1Store: func(c *MESIL1, x l1Ctx) {
				c.performStore(x.line, x.op)
			},
			l1Atomic: func(c *MESIL1, x l1Ctx) {
				c.performAtomic(x.line, x.op)
			},
			l1Flush: func(c *MESIL1, x l1Ctx) {
				x.line.state = l1MI
				c.send(c.homeTile(x.addr), interconnect.VNetRequest,
					&Msg{Type: MsgPUTX, Addr: x.addr, Data: x.line.data, Dirty: true, Requestor: c.id})
				c.notify(x.addr, false)
				c.sim.ScheduleEvent(hitLatency, requestDone, x.op, 0)
			},
			l1Replace: func(c *MESIL1, x l1Ctx) {
				x.line.state = l1MI
				c.send(c.homeTile(x.addr), interconnect.VNetRequest,
					&Msg{Type: MsgPUTX, Addr: x.addr, Data: x.line.data, Dirty: true, Requestor: c.id})
				c.notify(x.addr, false)
			},
			l1Inv: func(c *MESIL1, x l1Ctx) { // defensive
				c.send(x.msg.AckTo, interconnect.VNetResponse,
					&Msg{Type: MsgInvAck, Addr: x.addr})
				c.notify(x.addr, c.bugs.MESILQMInv)
				c.removeLine(x.addr, x.line)
			},
			l1FwdGETS: func(c *MESIL1, x l1Ctx) {
				x.line.state = l1S
				c.send(L1Node(x.msg.Requestor), interconnect.VNetResponse,
					&Msg{Type: MsgDataSB, Addr: x.addr, Data: x.line.data})
				c.send(c.homeTile(x.addr), interconnect.VNetResponse,
					&Msg{Type: MsgWBData, Addr: x.addr, Data: x.line.data, Dirty: true, Requestor: c.id})
			},
			l1FwdGETX: func(c *MESIL1, x l1Ctx) {
				c.send(L1Node(x.msg.Requestor), interconnect.VNetResponse,
					&Msg{Type: MsgDataM, Addr: x.addr, Data: x.line.data, AckCount: 0})
				// Bug MESI,LQ+M,Inv.
				c.notify(x.addr, c.bugs.MESILQMInv)
				c.removeLine(x.addr, x.line)
			},
			l1Recall: func(c *MESIL1, x l1Ctx) {
				c.send(c.homeTile(x.addr), interconnect.VNetResponse,
					&Msg{Type: MsgRecallData, Addr: x.addr, Data: x.line.data, Dirty: true})
				c.notify(x.addr, c.bugs.MESILQMInv)
				c.removeLine(x.addr, x.line)
			},
		},

		// ---- IS ---------------------------------------------------
		l1IS: {
			l1Inv: func(c *MESIL1, x l1Ctx) {
				// The invalidation raced ahead of our data response:
				// sink it (ack now) and remember via IS_I that the
				// data, when it arrives, is already invalidated.
				x.line.state = l1ISI
				c.send(x.msg.AckTo, interconnect.VNetResponse,
					&Msg{Type: MsgInvAck, Addr: x.addr})
			},
			l1DataS: func(c *MESIL1, x l1Ctx) {
				x.line.data = x.msg.Data
				x.line.state = l1S
				c.satisfyPrimary(x.line, false)
				c.settle(x.line)
			},
			l1DataSB: func(c *MESIL1, x l1Ctx) {
				x.line.data = x.msg.Data
				x.line.state = l1S
				c.satisfyPrimary(x.line, false)
				c.send(c.homeTile(x.addr), interconnect.VNetRequest,
					&Msg{Type: MsgUnblock, Addr: x.addr, Requestor: c.id})
				c.settle(x.line)
			},
			l1DataE: func(c *MESIL1, x l1Ctx) {
				x.line.data = x.msg.Data
				x.line.state = l1E
				c.satisfyPrimary(x.line, false)
				c.send(c.homeTile(x.addr), interconnect.VNetRequest,
					&Msg{Type: MsgUnblock, Addr: x.addr, Requestor: c.id})
				c.settle(x.line)
			},
		},

		// ---- IS_I -------------------------------------------------
		l1ISI: {
			l1Inv: func(c *MESIL1, x l1Ctx) { // defensive
				c.send(x.msg.AckTo, interconnect.VNetResponse,
					&Msg{Type: MsgInvAck, Addr: x.addr})
			},
			l1DataS:  l1DataInISI,
			l1DataSB: l1DataInISIUnblock,
			l1DataE:  l1DataInISIUnblock,
		},

		// ---- IM ---------------------------------------------------
		l1IM: {
			l1DataM: func(c *MESIL1, x l1Ctx) {
				x.line.data = x.msg.Data
				x.line.haveData = true
				x.line.pendingAcks += x.msg.AckCount
				c.maybeCompleteGETX(x.addr, x.line)
			},
			l1InvAck: func(c *MESIL1, x l1Ctx) {
				x.line.pendingAcks--
				c.maybeCompleteGETX(x.addr, x.line)
			},
			l1Inv: func(c *MESIL1, x l1Ctx) { // defensive
				c.send(x.msg.AckTo, interconnect.VNetResponse,
					&Msg{Type: MsgInvAck, Addr: x.addr})
			},
		},

		// ---- SM ---------------------------------------------------
		l1SM: {
			l1Load: l1Hit, // SM retains valid shared data
			l1DataM: func(c *MESIL1, x l1Ctx) {
				x.line.data = x.msg.Data
				x.line.haveData = true
				x.line.pendingAcks += x.msg.AckCount
				c.maybeCompleteGETX(x.addr, x.line)
			},
			l1InvAck: func(c *MESIL1, x l1Ctx) {
				x.line.pendingAcks--
				c.maybeCompleteGETX(x.addr, x.line)
			},
			l1Inv: func(c *MESIL1, x l1Ctx) {
				// Another core's GETX won at the directory: our shared
				// copy dies; the upgrade degrades to a full miss.
				// Bug MESI,LQ+SM,Inv: the invalidation is not
				// forwarded to the LSQ.
				c.notify(x.addr, c.bugs.MESILQSMInv)
				c.send(x.msg.AckTo, interconnect.VNetResponse,
					&Msg{Type: MsgInvAck, Addr: x.addr})
				x.line.state = l1IM
			},
		},

		// ---- E_I --------------------------------------------------
		l1EI: {
			l1WBAck:    l1RemoveOnAck,
			l1PutStale: l1PutStaleInWB,
			l1FwdGETS:  l1ServeFwdGETSInWB,
			l1FwdGETX:  l1ServeFwdGETXInWB,
			l1Recall: func(c *MESIL1, x l1Ctx) {
				c.send(c.homeTile(x.addr), interconnect.VNetResponse,
					&Msg{Type: MsgRecallStale, Addr: x.addr})
			},
			l1Inv: func(c *MESIL1, x l1Ctx) { // defensive
				c.send(x.msg.AckTo, interconnect.VNetResponse,
					&Msg{Type: MsgInvAck, Addr: x.addr})
			},
		},

		// ---- M_I --------------------------------------------------
		l1MI: {
			l1WBAck:    l1RemoveOnAck,
			l1PutStale: l1PutStaleInWB,
			l1FwdGETS:  l1ServeFwdGETSInWB,
			l1FwdGETX:  l1ServeFwdGETXInWB,
			l1Recall: func(c *MESIL1, x l1Ctx) {
				c.send(c.homeTile(x.addr), interconnect.VNetResponse,
					&Msg{Type: MsgRecallStale, Addr: x.addr})
			},
			l1Inv: func(c *MESIL1, x l1Ctx) { // defensive
				c.send(x.msg.AckTo, interconnect.VNetResponse,
					&Msg{Type: MsgInvAck, Addr: x.addr})
			},
		},

		// ---- E_IS / M_IS (stale PUT acknowledged, forward owed) ---
		l1EIS: {
			l1FwdGETS: l1ServeFwdGETSThenDrop,
			l1FwdGETX: l1ServeFwdGETXThenDrop,
			l1Inv: func(c *MESIL1, x l1Ctx) { // defensive
				c.send(x.msg.AckTo, interconnect.VNetResponse,
					&Msg{Type: MsgInvAck, Addr: x.addr})
			},
		},
		l1MIS: {
			l1FwdGETS: l1ServeFwdGETSThenDrop,
			l1FwdGETX: l1ServeFwdGETXThenDrop,
			l1Inv: func(c *MESIL1, x l1Ctx) { // defensive
				c.send(x.msg.AckTo, interconnect.VNetResponse,
					&Msg{Type: MsgInvAck, Addr: x.addr})
			},
		},
	}

	// A Recall can go stale: the directory resolved the eviction
	// through the owner's in-flight PUT, removed the line, and by the
	// time the Recall reaches the old owner it may have re-allocated
	// the line in any state. Answer RecallStale (dropped at the L2)
	// without disturbing the current line. States with a specific
	// Recall handler above (E, M, E_I, M_I, I) keep it.
	recallStale := func(c *MESIL1, x l1Ctx) {
		c.send(c.homeTile(x.addr), interconnect.VNetResponse,
			&Msg{Type: MsgRecallStale, Addr: x.addr})
	}
	for st := range table {
		if table[st][l1Recall] == nil {
			table[st][l1Recall] = recallStale
		}
	}

	// Forwards can also go stale: the directory generation that sent
	// them can resolve through the old owner's PUT, after which the
	// old owner may have re-allocated the line in any state. A forward
	// hitting a non-owner state is stale and dropped; the requestor it
	// named has been (or will be) served through the generation's
	// resolution path.
	dropFwd := func(c *MESIL1, x l1Ctx) {}
	for st := range table {
		for _, ev := range []l1Event{l1FwdGETS, l1FwdGETX} {
			if table[st][ev] == nil {
				table[st][ev] = dropFwd
			}
		}
	}

	mesiL1Kind = kind[MESIL1, mesiL1Line, *mesiL1Line]{
		controller: "L1Cache", states: l1StateNames[:], events: l1EventNames[:],
		msgEvent: routes(map[MsgType]l1Event{
			MsgInv: l1Inv, MsgFwdGETS: l1FwdGETS, MsgFwdGETX: l1FwdGETX, MsgRecall: l1Recall,
			MsgDataS: l1DataS, MsgDataSB: l1DataSB, MsgDataE: l1DataE, MsgDataM: l1DataM,
			MsgInvAck: l1InvAck, MsgWBAck: l1WBAck, MsgPutStale: l1PutStale,
		}),
		replace: int(l1Replace),
		stable:  1<<l1I | 1<<l1S | 1<<l1E | 1<<l1M,
		// Loads hit in SM, which holds valid shared data (the SM,Inv bug
		// window needs performed loads from SM).
		loadRows: 1 << l1SM,
		store:    (*MESIL1).performStore,
		atomic:   (*MESIL1).performAtomic,
	}
	for s := range table {
		mesiL1Kind.table = append(mesiL1Kind.table, table[s][:]...)
	}
}

// l1PutStaleInWB handles the L2's "your PUT raced with a forward" ack:
// if the forward was already served from the writeback state, the line
// can go; otherwise it must stay, holding data, until the forward
// arrives (PutStale can overtake the forward across virtual networks).
func l1PutStaleInWB(c *MESIL1, x l1Ctx) {
	if x.line.servedFwd {
		c.removeLine(x.addr, x.line)
		return
	}
	if x.line.state == l1EI {
		x.line.state = l1EIS
	} else {
		x.line.state = l1MIS
	}
}

// l1ServeFwdGETSInWB serves a forwarded GETS from a writeback state. No
// WBData copy is sent to the L2: the in-flight PUT carries the data and
// the L2 absorbs it as the writeback.
func l1ServeFwdGETSInWB(c *MESIL1, x l1Ctx) {
	c.send(L1Node(x.msg.Requestor), interconnect.VNetResponse,
		&Msg{Type: MsgDataSB, Addr: x.addr, Data: x.line.data})
	x.line.servedFwd = true
}

func l1ServeFwdGETXInWB(c *MESIL1, x l1Ctx) {
	c.send(L1Node(x.msg.Requestor), interconnect.VNetResponse,
		&Msg{Type: MsgDataM, Addr: x.addr, Data: x.line.data, AckCount: 0})
	x.line.servedFwd = true
}

func l1ServeFwdGETSThenDrop(c *MESIL1, x l1Ctx) {
	c.send(L1Node(x.msg.Requestor), interconnect.VNetResponse,
		&Msg{Type: MsgDataSB, Addr: x.addr, Data: x.line.data})
	c.removeLine(x.addr, x.line)
}

func l1ServeFwdGETXThenDrop(c *MESIL1, x l1Ctx) {
	c.send(L1Node(x.msg.Requestor), interconnect.VNetResponse,
		&Msg{Type: MsgDataM, Addr: x.addr, Data: x.line.data, AckCount: 0})
	c.removeLine(x.addr, x.line)
}

// l1Hit services a load hit.
func l1Hit(c *MESIL1, x l1Ctx) {
	c.completeLoad(x.line, x.op, false)
}

// l1UpgradeFromS begins a store/atomic upgrade of a shared line.
func l1UpgradeFromS(c *MESIL1, x l1Ctx) {
	x.line.state = l1SM
	x.line.primary = x.op
	x.line.pendingAcks = 0
	x.line.haveData = false
	c.send(c.homeTile(x.addr), interconnect.VNetRequest,
		&Msg{Type: MsgGETX, Addr: x.addr, Requestor: c.id})
}

// l1StartGETX begins a store/atomic miss from I.
func l1StartGETX(c *MESIL1, x l1Ctx) {
	x.line.state = l1IM
	x.line.primary = x.op
	x.line.pendingAcks = 0
	x.line.haveData = false
	c.send(c.homeTile(x.addr), interconnect.VNetRequest,
		&Msg{Type: MsgGETX, Addr: x.addr, Requestor: c.id})
}

// l1RemoveOnAck finishes a writeback.
func l1RemoveOnAck(c *MESIL1, x l1Ctx) {
	c.removeLine(x.addr, x.line)
}

// l1DataInISI delivers data whose line was invalidated while in flight:
// the Peekaboo window. The pending load may use the data exactly once,
// and the LQ must be told the line is already invalid so younger
// speculatively-performed loads squash.
//
// Bug MESI,LQ+IS,Inv suppresses the notification, so the load commits a
// value that can be stale relative to program order.
func l1DataInISI(c *MESIL1, x l1Ctx) {
	x.line.data = x.msg.Data
	c.notify(x.addr, c.bugs.MESILQISInv)
	op := x.line.primary
	x.line.primary = nil
	if op != nil && op.Kind == ReqLoad {
		op.Done(op, x.line.data.Word(op.Addr), !c.bugs.MESILQISInv)
	} else if op != nil {
		// A store/atomic primary cannot use once-only data; replay
		// it after removal (it will miss afresh).
		x.line.deferred.pushFront(op)
	}
	c.removeLine(x.addr, x.line)
}

func l1DataInISIUnblock(c *MESIL1, x l1Ctx) {
	// The line is discarded right after the once-only use, so the
	// unblock must carry Dropped: the directory would otherwise record
	// this core as owner/sharer of a line it no longer holds.
	c.send(c.homeTile(x.addr), interconnect.VNetRequest,
		&Msg{Type: MsgUnblock, Addr: x.addr, Requestor: c.id, Dropped: true})
	l1DataInISI(c, x)
}
