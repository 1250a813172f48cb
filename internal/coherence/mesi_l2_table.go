package coherence

import "repro/internal/interconnect"

// mesiL2Kind is the MESI L2/directory protocol. The MESI+PUTX-Race bug
// removes the (MT_MB, L1_PUTX) race handling at runtime, turning the
// Komuravelli race into a Ruby-style invalid transition; the
// MESI+Replace-Race bug drops dirty recall/writeback data when the
// directory believed the line clean.
var mesiL2Kind kind[MESIL2, mesiL2Line, *mesiL2Line]

func initMESIL2() {
	recycleReq := func(c *MESIL2, x l2Ctx) { c.recycle(x.msg) }
	dropMsg := func(c *MESIL2, x l2Ctx) {}
	putStale := func(c *MESIL2, x l2Ctx) {
		c.send(x.msg.Src, interconnect.VNetResponse,
			&Msg{Type: MsgPutStale, Addr: x.addr})
	}

	table := [len(l2StateNames)][len(l2EventNames)]l2Handler{
		// ---- NP ---------------------------------------------------
		l2NP: {
			l2GETS: func(c *MESIL2, x l2Ctx) {
				x.line.state = l2IFS
				x.line.reqCore = x.msg.Requestor
				c.readMem(x.addr)
			},
			l2GETX: func(c *MESIL2, x l2Ctx) {
				x.line.state = l2IFX
				x.line.reqCore = x.msg.Requestor
				c.readMem(x.addr)
			},
			l2PUTS:        dropMsg,
			l2PUTE:        putStale,
			l2PUTX:        putStale,
			l2RecallStale: dropMsg,
		},

		// ---- ISS (memory fetch for GETS) --------------------------
		l2IFS: {
			l2MemData: func(c *MESIL2, x l2Ctx) {
				x.line.data = x.msg.Data
				x.line.dirty = false
				x.line.state = l2BE
				x.line.expectClean = true
				c.send(L1Node(x.line.reqCore), interconnect.VNetResponse,
					&Msg{Type: MsgDataE, Addr: x.addr, Data: x.line.data})
			},
			l2GETS: recycleReq,
			l2GETX: recycleReq,
			l2PUTS: dropMsg,
		},

		// ---- IMX (memory fetch for GETX) --------------------------
		l2IFX: {
			l2MemData: func(c *MESIL2, x l2Ctx) {
				x.line.data = x.msg.Data
				x.line.dirty = false
				x.line.state = l2BX
				x.line.expectClean = false
				c.send(L1Node(x.line.reqCore), interconnect.VNetResponse,
					&Msg{Type: MsgDataM, Addr: x.addr, Data: x.line.data, AckCount: 0})
			},
			l2GETS: recycleReq,
			l2GETX: recycleReq,
			l2PUTS: dropMsg,
		},

		// ---- BE (exclusive grant, waiting unblock) ----------------
		l2BE: {
			l2Unblock: func(c *MESIL2, x l2Ctx) {
				if x.msg.Dropped {
					// The grantee's copy was invalidated in flight (IS_I)
					// and discarded after its once-only use; the L2 still
					// holds the data, so the line simply returns to SS
					// with no sharers.
					x.line.state = l2SS
					x.line.owner = -1
					x.line.sharers = 0
					x.line.expectClean = false
					return
				}
				x.line.state = l2MT
				x.line.owner = x.msg.Requestor
				x.line.sharers = 0
			},
			l2GETS: recycleReq,
			l2GETX: recycleReq,
			l2PUTS: dropMsg,
		},

		// ---- BX (modified grant, waiting unblock) -----------------
		l2BX: {
			l2Unblock: func(c *MESIL2, x l2Ctx) {
				x.line.state = l2MT
				x.line.owner = x.msg.Requestor
				x.line.sharers = 0
				x.line.expectClean = false
			},
			l2GETS: recycleReq,
			l2GETX: recycleReq,
			l2PUTS: dropMsg,
		},

		// ---- SS ---------------------------------------------------
		l2SS: {
			l2GETS: func(c *MESIL2, x l2Ctx) {
				if x.line.sharerCount() == 0 {
					// No sharers: grant exclusive-clean; the silent
					// upgrade belief starts here.
					x.line.state = l2BE
					x.line.reqCore = x.msg.Requestor
					x.line.expectClean = true
					c.send(L1Node(x.msg.Requestor), interconnect.VNetResponse,
						&Msg{Type: MsgDataE, Addr: x.addr, Data: x.line.data})
					return
				}
				// Shared data: non-blocking grant — the directory can
				// immediately process another core's GETX, whose Inv
				// can then overtake this DataS (the IS_I race of
				// MESI,LQ+IS,Inv).
				x.line.addSharer(x.msg.Requestor)
				c.send(L1Node(x.msg.Requestor), interconnect.VNetResponse,
					&Msg{Type: MsgDataS, Addr: x.addr, Data: x.line.data})
			},
			l2GETX: func(c *MESIL2, x l2Ctx) {
				req := x.msg.Requestor
				acks := c.invalidateSharers(x, req, L1Node(req))
				x.line.sharers = 0
				x.line.reqCore = req
				x.line.state = l2BX
				x.line.expectClean = false
				c.send(L1Node(req), interconnect.VNetResponse,
					&Msg{Type: MsgDataM, Addr: x.addr, Data: x.line.data, AckCount: acks})
			},
			l2PUTS: func(c *MESIL2, x l2Ctx) {
				x.line.dropSharer(x.msg.Requestor)
			},
			l2PUTE: putStale,
			l2PUTX: putStale,
			l2Replace: func(c *MESIL2, x l2Ctx) {
				if x.line.sharerCount() == 0 {
					if x.line.dirty {
						c.writeMem(x.addr, x.line.data)
					}
					c.array.Remove(x.addr)
					return
				}
				// Recall all shared copies before dropping the line
				// (inclusive L2).
				n := 0
				for core := 0; core < c.cores; core++ {
					if !x.line.isSharer(core) {
						continue
					}
					c.send(L1Node(core), interconnect.VNetForward,
						&Msg{Type: MsgInv, Addr: x.addr, AckTo: c.node})
					n++
				}
				x.line.pending = n
				x.line.state = l2SI
			},
		},

		// ---- MT ---------------------------------------------------
		l2MT: {
			l2GETS: func(c *MESIL2, x l2Ctx) {
				x.line.state = l2MTSB
				x.line.reqCore = x.msg.Requestor
				x.line.gotWB = false
				x.line.gotUnb = false
				c.send(L1Node(x.line.owner), interconnect.VNetForward,
					&Msg{Type: MsgFwdGETS, Addr: x.addr, Requestor: x.msg.Requestor})
			},
			l2GETX: func(c *MESIL2, x l2Ctx) {
				x.line.state = l2MTMB
				x.line.reqCore = x.msg.Requestor
				c.send(L1Node(x.line.owner), interconnect.VNetForward,
					&Msg{Type: MsgFwdGETX, Addr: x.addr, Requestor: x.msg.Requestor})
			},
			l2PUTS: dropMsg,
			l2PUTX: func(c *MESIL2, x l2Ctx) {
				if x.msg.Src != L1Node(x.line.owner) {
					c.send(x.msg.Src, interconnect.VNetResponse,
						&Msg{Type: MsgPutStale, Addr: x.addr})
					return
				}
				x.line.data = x.msg.Data
				x.line.dirty = true
				x.line.owner = -1
				x.line.sharers = 0
				x.line.state = l2SS
				c.send(x.msg.Src, interconnect.VNetResponse,
					&Msg{Type: MsgWBAck, Addr: x.addr})
			},
			l2PUTE: func(c *MESIL2, x l2Ctx) {
				if x.msg.Src != L1Node(x.line.owner) {
					c.send(x.msg.Src, interconnect.VNetResponse,
						&Msg{Type: MsgPutStale, Addr: x.addr})
					return
				}
				// Clean owner replacement: the L2 copy is still valid.
				x.line.owner = -1
				x.line.sharers = 0
				x.line.state = l2SS
				c.send(x.msg.Src, interconnect.VNetResponse,
					&Msg{Type: MsgWBAck, Addr: x.addr})
			},
			l2Replace: func(c *MESIL2, x l2Ctx) {
				x.line.state = l2MTI
				c.send(L1Node(x.line.owner), interconnect.VNetForward,
					&Msg{Type: MsgRecall, Addr: x.addr})
			},
		},

		// ---- MT_SB ------------------------------------------------
		l2MTSB: {
			l2WBData: func(c *MESIL2, x l2Ctx) {
				x.line.data = x.msg.Data
				x.line.dirty = x.line.dirty || x.msg.Dirty
				// The owner downgraded to S and stays a sharer.
				x.line.addSharer(x.msg.Requestor)
				x.line.gotWB = true
				l2MaybeFinishSB(c, x)
			},
			l2PUTX: func(c *MESIL2, x l2Ctx) {
				// The owner replaced the line while our FwdGETS was in
				// flight; it has answered (or will answer) the forward
				// from M_I. Absorb the writeback as the data copy.
				x.line.data = x.msg.Data
				x.line.dirty = true
				x.line.owner = -1
				x.line.gotWB = true
				c.send(x.msg.Src, interconnect.VNetResponse,
					&Msg{Type: MsgPutStale, Addr: x.addr})
				l2MaybeFinishSB(c, x)
			},
			l2PUTE: func(c *MESIL2, x l2Ctx) {
				x.line.owner = -1
				x.line.gotWB = true
				c.send(x.msg.Src, interconnect.VNetResponse,
					&Msg{Type: MsgPutStale, Addr: x.addr})
				l2MaybeFinishSB(c, x)
			},
			l2Unblock: func(c *MESIL2, x l2Ctx) {
				// A Dropped unblock means the requestor discarded its copy
				// (IS_I): complete the transaction without recording it as
				// a sharer.
				if !x.msg.Dropped {
					x.line.addSharer(x.msg.Requestor)
				}
				x.line.gotUnb = true
				l2MaybeFinishSB(c, x)
			},
			l2GETS: recycleReq,
			l2GETX: recycleReq,
			l2PUTS: dropMsg,
		},

		// ---- MT_MB ------------------------------------------------
		l2MTMB: {
			l2Unblock: func(c *MESIL2, x l2Ctx) {
				x.line.state = l2MT
				x.line.owner = x.msg.Requestor
				x.line.sharers = 0
				x.line.expectClean = false
			},
			l2PUTX: func(c *MESIL2, x l2Ctx) {
				// The Komuravelli race: the old owner's replacement
				// PUTX arrives while the directory is blocked on the
				// forwarded GETX.
				//
				// Bug MESI+PUTX-Race: the handler is missing, which
				// Ruby reports as an invalid transition.
				if c.bugs.MESIPUTXRace {
					c.invalid(x.line.row(), int(l2PUTX), x.addr)
					return
				}
				// Fixed: the old owner has served (or will serve) the
				// forward from M_I; its writeback is superseded by the
				// new owner's copy.
				c.send(x.msg.Src, interconnect.VNetResponse,
					&Msg{Type: MsgPutStale, Addr: x.addr})
			},
			l2PUTE: putStale,
			l2GETS: recycleReq,
			l2GETX: recycleReq,
			l2PUTS: dropMsg,
		},

		// ---- S_I --------------------------------------------------
		l2SI: {
			l2InvAck: func(c *MESIL2, x l2Ctx) {
				x.line.pending--
				if x.line.pending > 0 {
					return
				}
				if x.line.dirty {
					c.writeMem(x.addr, x.line.data)
				}
				c.array.Remove(x.addr)
			},
			l2GETS: recycleReq,
			l2GETX: recycleReq,
			l2PUTS: dropMsg,
		},

		// ---- MT_I -------------------------------------------------
		l2MTI: {
			l2RecallData: func(c *MESIL2, x l2Ctx) {
				// Bug MESI+Replace-Race: the directory believed the
				// line clean (granted E, silently upgraded by the
				// owner) and "does not expect modified data": the
				// dirty writeback is dropped and memory stays stale.
				if !(x.line.expectClean && c.bugs.MESIReplaceRace) {
					c.writeMem(x.addr, x.msg.Data)
				}
				c.array.Remove(x.addr)
			},
			l2RecallAck: func(c *MESIL2, x l2Ctx) {
				if x.line.dirty {
					c.writeMem(x.addr, x.line.data)
				}
				c.array.Remove(x.addr)
			},
			l2RecallStale: dropMsg, // the owner's PUT is in flight
			// A PUT resolves the recall only if it comes from the owner
			// the recall went to. Any other PUT is an earlier owner's,
			// left in flight when that owner answered a FwdGETX from
			// E_I/M_I. The data it carries was handed to the next owner
			// with that answer, and the line has been granted since. So
			// the PUT is stale, as gem5 MESI_Two_Level's L1_PUTX_old is:
			// PutStale lets its sender, which has served the forward,
			// drop the line. The recall stays outstanding. Taking the PUT
			// as the owner's wrote the earlier owner's data to memory and
			// removed the line while the current owner held it in M, so
			// that owner's Recall_Data found NP, or ISS once another
			// request had re-allocated the line.
			l2PUTX: func(c *MESIL2, x l2Ctx) {
				if x.msg.Src != L1Node(x.line.owner) {
					putStale(c, x)
					return
				}
				// Owner replacement raced our recall: same belief, same
				// bug.
				if !(x.line.expectClean && c.bugs.MESIReplaceRace) {
					c.writeMem(x.addr, x.msg.Data)
				}
				c.send(x.msg.Src, interconnect.VNetResponse,
					&Msg{Type: MsgWBAck, Addr: x.addr})
				c.array.Remove(x.addr)
			},
			l2PUTE: func(c *MESIL2, x l2Ctx) {
				if x.msg.Src != L1Node(x.line.owner) {
					putStale(c, x) // an earlier owner's, as for PUTX
					return
				}
				if x.line.dirty {
					c.writeMem(x.addr, x.line.data)
				}
				c.send(x.msg.Src, interconnect.VNetResponse,
					&Msg{Type: MsgWBAck, Addr: x.addr})
				c.array.Remove(x.addr)
			},
			l2GETS: recycleReq,
			l2GETX: recycleReq,
			l2PUTS: dropMsg,
		},
	}

	// A RecallStale answers a Recall whose line the directory has since
	// resolved through the owner's in-flight PUT — by the time it
	// arrives the line may be in any state (including re-allocated):
	// it is stale in all of them and dropped. MT_I keeps its specific
	// entry above (wait for the PUT).
	for st := range table {
		if table[st][l2RecallStale] == nil {
			table[st][l2RecallStale] = dropMsg
		}
	}

	mesiL2Kind = kind[MESIL2, mesiL2Line, *mesiL2Line]{
		controller: "L2Cache", states: l2StateNames[:], events: l2EventNames[:],
		msgEvent: routes(map[MsgType]l2Event{
			MsgGETS: l2GETS, MsgGETX: l2GETX, MsgPUTS: l2PUTS, MsgPUTE: l2PUTE, MsgPUTX: l2PUTX,
			MsgUnblock: l2Unblock, MsgWBData: l2WBData, MsgRecallData: l2RecallData,
			MsgRecallAck: l2RecallAck, MsgRecallStale: l2RecallStale, MsgInvAck: l2InvAck,
			MsgMemData: l2MemData,
		}),
		request:      [numMsgTypes]bool{MsgGETS: true, MsgGETX: true},
		replace:      int(l2Replace),
		stable:       1<<l2SS | 1<<l2MT,
		blank:        mesiL2Line{state: l2NP, owner: -1},
		recycleNet:   interconnect.VNetRequest,
		recycleDelay: recycleDelay,
	}
	for s := range table {
		mesiL2Kind.table = append(mesiL2Kind.table, table[s][:]...)
	}
}

// l2MaybeFinishSB completes the MT→SS transition once both the owner's
// data and the requestor's unblock have arrived.
func l2MaybeFinishSB(c *MESIL2, x l2Ctx) {
	if !x.line.gotWB || !x.line.gotUnb {
		return
	}
	x.line.state = l2SS
	x.line.owner = -1
	x.line.gotWB = false
	x.line.gotUnb = false
}
