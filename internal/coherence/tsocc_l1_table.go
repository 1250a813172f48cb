package coherence

import (
	"repro/internal/interconnect"
	"repro/internal/memsys"
)

// tsoccL1Kind is the TSO-CC L1 protocol.
var tsoccL1Kind kind[TSOCCL1, tsoL1Line, *tsoL1Line]

func initTSOCCL1() {
	table := [len(tsoL1StateNames)][len(tsoL1EventNames)]tsoL1Handler{
		// ---- I ----------------------------------------------------
		tsoI: {
			tLoad:   tsoStartGetS,
			tStore:  tsoStartGetX,
			tAtomic: tsoStartGetX,
			tFetch: func(c *TSOCCL1, x tsoL1Ctx) {
				// Stale fetch: our writeback already carried the data.
			},
			tFetchInv: func(c *TSOCCL1, x tsoL1Ctx) {},
		},

		// ---- Sh ---------------------------------------------------
		tsoSH: {
			tLoad: func(c *TSOCCL1, x tsoL1Ctx) {
				if x.line.readsLeft > 0 {
					// Bounded shared read (max-reads rule).
					x.line.readsLeft--
					c.completeLoad(x.line, x.op, false)
					return
				}
				// Read budget exhausted: re-fetch for eventual
				// visibility. Dropping the bounded stale copy is an
				// invalidation of that copy: speculatively-performed
				// loads that used it must squash, because the refill
				// may carry newer data while an older load is still
				// outstanding (TSO R→R).
				c.notify(x.addr)
				tsoStartGetS(c, x)
			},
			// A store upgrade also drops the bounded stale copy: the
			// exclusive fill may carry newer data, so performed loads on
			// the old copy must squash, like on the re-fetch path above.
			tStore:  tsoUpgradeFromSH,
			tAtomic: tsoUpgradeFromSH,
			tFlush: func(c *TSOCCL1, x tsoL1Ctx) {
				// Shared lines are untracked: drop silently. The LQ
				// must still learn of the eviction.
				c.notify(x.addr)
				c.sim.ScheduleEvent(hitLatency, requestDone, x.op, 0)
				c.removeLine(x.addr, x.line)
			},
			tReplace: func(c *TSOCCL1, x tsoL1Ctx) {
				c.notify(x.addr)
				c.removeLine(x.addr, x.line)
			},
			tFetchInv: func(c *TSOCCL1, x tsoL1Ctx) {
				// A fetch reaching a non-owner is stale by construction
				// (the directory's generation has already resolved):
				// invalidate the copy, send no ack — we are not the
				// writer and must not fabricate timestamp metadata.
				c.notify(x.addr)
				c.removeLine(x.addr, x.line)
			},
			tFetch: func(c *TSOCCL1, x tsoL1Ctx) {}, // defensive
		},

		// ---- Ex ---------------------------------------------------
		tsoEX: {
			tLoad: func(c *TSOCCL1, x tsoL1Ctx) {
				c.completeLoad(x.line, x.op, false)
			},
			tStore: func(c *TSOCCL1, x tsoL1Ctx) {
				c.performStore(x.line, x.op)
			},
			tAtomic: func(c *TSOCCL1, x tsoL1Ctx) {
				c.performAtomic(x.line, x.op)
			},
			tFlush: func(c *TSOCCL1, x tsoL1Ctx) {
				c.startWriteback(x)
				c.notify(x.addr)
				c.sim.ScheduleEvent(hitLatency, requestDone, x.op, 0)
			},
			tReplace: func(c *TSOCCL1, x tsoL1Ctx) {
				c.startWriteback(x)
				c.notify(x.addr)
			},
			tFetch: func(c *TSOCCL1, x tsoL1Ctx) {
				if x.msg.AckCount <= x.line.grantSeq {
					return // stale: aimed at an earlier grant of this line
				}
				// Remote read: provide data and downgrade to Shared;
				// the line stays valid, so the LQ needs no notice.
				x.line.state = tsoSH
				x.line.readsLeft = maxReads
				c.send(c.homeTile(x.addr), interconnect.VNetResponse, &Msg{
					Type: MsgTFetchAck, Addr: x.addr, Data: x.line.data,
					Dirty: x.line.dirty, Writer: c.id,
					Ts: x.line.wts, Epoch: x.line.wepoch,
					AckCount: x.msg.AckCount,
				})
				x.line.dirty = false
			},
			tFetchInv: func(c *TSOCCL1, x tsoL1Ctx) {
				if x.msg.AckCount <= x.line.grantSeq {
					return // stale: aimed at an earlier grant of this line
				}
				// Ownership transfer or L2 eviction: full invalidation.
				c.send(c.homeTile(x.addr), interconnect.VNetResponse, &Msg{
					Type: MsgTFetchAck, Addr: x.addr, Data: x.line.data,
					Dirty: x.line.dirty, Writer: c.id,
					Ts: x.line.wts, Epoch: x.line.wepoch,
					AckCount: x.msg.AckCount,
				})
				c.notify(x.addr)
				c.removeLine(x.addr, x.line)
			},
		},

		// ---- ISD --------------------------------------------------
		// Stale fetches (the L2 generation that sent them has already
		// resolved through our writeback) may find the line
		// re-allocated and fetching; they are dropped, like in state I.
		tsoISD: {
			tFetch:    func(c *TSOCCL1, x tsoL1Ctx) {},
			tFetchInv: func(c *TSOCCL1, x tsoL1Ctx) {},
			tData: func(c *TSOCCL1, x tsoL1Ctx) {
				// A self-invalidation since the GetS left means the data
				// may predate writes that acquire made visible to
				// po-later loads: discard it, unread, and fetch again.
				if x.line.invStamp != c.selfInvs {
					c.sendGetS(x)
					return
				}
				// The acquire rule: decide self-invalidation from the
				// writer metadata before the load performs.
				if c.decideSelfInvalidate(x.msg.Writer, x.msg.Epoch, x.msg.Ts) {
					c.selfInvalidate()
				}
				x.line.data = x.msg.Data
				x.line.state = tsoSH
				x.line.readsLeft = maxReads - 1 // the primary load reads once
				x.line.dirty = false
				x.line.grantSeq = x.msg.AckCount
				c.satisfyPrimary(x.line, false)
				c.settle(x.line)
			},
		},

		// ---- IXD --------------------------------------------------
		tsoIXD: {
			tDataEx: func(c *TSOCCL1, x tsoL1Ctx) {
				// An exclusive grant hands over the last writer's data,
				// which later loads read: the acquire rule applies as
				// to a shared fill.
				if c.decideSelfInvalidate(x.msg.Writer, x.msg.Epoch, x.msg.Ts) {
					c.selfInvalidate()
				}
				x.line.data = x.msg.Data
				x.line.state = tsoEX
				x.line.dirty = false
				x.line.grantSeq = x.msg.AckCount
				c.satisfyPrimary(x.line, false)
				c.settle(x.line)
			},
			tFetch: func(c *TSOCCL1, x tsoL1Ctx) {
				// The L2's fetch for a later request overtook our
				// exclusive grant: retry shortly.
				c.recycle(x.msg)
			},
			tFetchInv: func(c *TSOCCL1, x tsoL1Ctx) {
				c.recycle(x.msg)
			},
		},

		// ---- WB_I -------------------------------------------------
		tsoWBI: {
			tWBAck: func(c *TSOCCL1, x tsoL1Ctx) {
				c.removeLine(x.addr, x.line)
			},
			tFetch: func(c *TSOCCL1, x tsoL1Ctx) {
				// We still hold the data while the writeback is in
				// flight; answer from the retained copy.
				c.send(c.homeTile(x.addr), interconnect.VNetResponse, &Msg{
					Type: MsgTFetchAck, Addr: x.addr, Data: x.line.data,
					Dirty: x.line.dirty, Writer: c.id,
					Ts: x.line.wts, Epoch: x.line.wepoch,
					AckCount: x.msg.AckCount,
				})
			},
			tFetchInv: func(c *TSOCCL1, x tsoL1Ctx) {
				c.send(c.homeTile(x.addr), interconnect.VNetResponse, &Msg{
					Type: MsgTFetchAck, Addr: x.addr, Data: x.line.data,
					Dirty: x.line.dirty, Writer: c.id,
					Ts: x.line.wts, Epoch: x.line.wepoch,
					AckCount: x.msg.AckCount,
				})
			},
		},
	}

	tsoccL1Kind = kind[TSOCCL1, tsoL1Line, *tsoL1Line]{
		controller: "L1Cache", states: tsoL1StateNames[:], events: tsoL1EventNames[:],
		msgEvent: routes(map[MsgType]tsoL1Event{
			MsgTData: tData, MsgTDataEx: tDataEx, MsgTFetch: tFetch, MsgTFetchInv: tFetchInv,
			MsgTWBAck: tWBAck,
		}),
		replace:      int(tReplace),
		stable:       1<<tsoI | 1<<tsoSH | 1<<tsoEX,
		recycleNet:   interconnect.VNetForward,
		recycleDelay: retryDelay,
		store:        (*TSOCCL1).performStore,
		atomic:       (*TSOCCL1).performAtomic,
		reset:        (*TSOCCL1).resetTimestamps,
		// Timestamp resets are core-level, not per-line.
		core:      (*TSOCCL1).handleTsReset,
		coreEvent: "TsReset",
	}
	tsoccL1Kind.msgEvent[MsgTTsReset] = coreRoute
	for s := range table {
		tsoccL1Kind.table = append(tsoccL1Kind.table, table[s][:]...)
	}
}

// notify forwards an invalidation/eviction of lineAddr to the LQ. Under
// TSO-CC all notification paths are correct (the studied TSO-CC bugs
// remove *invalidations*, not notifications).
func (c *TSOCCL1) notify(lineAddr memsys.Addr) { c.invalNotify(lineAddr) }

func tsoStartGetS(c *TSOCCL1, x tsoL1Ctx) {
	x.line.state = tsoISD
	x.line.primary = x.op
	c.sendGetS(x)
}

// sendGetS fetches the line for its load, stamping it with the core's
// self-invalidation count.
func (c *TSOCCL1) sendGetS(x tsoL1Ctx) {
	x.line.invStamp = c.selfInvs
	c.send(c.homeTile(x.addr), interconnect.VNetRequest,
		&Msg{Type: MsgTGetS, Addr: x.addr, Requestor: c.id})
}

func tsoStartGetX(c *TSOCCL1, x tsoL1Ctx) {
	x.line.state = tsoIXD
	x.line.primary = x.op
	c.send(c.homeTile(x.addr), interconnect.VNetRequest,
		&Msg{Type: MsgTGetX, Addr: x.addr, Requestor: c.id})
}

func tsoUpgradeFromSH(c *TSOCCL1, x tsoL1Ctx) {
	c.notify(x.addr)
	tsoStartGetX(c, x)
}

// startWriteback moves an exclusive line into WB_I and sends the data
// home with its write-time timestamp metadata.
func (c *TSOCCL1) startWriteback(x tsoL1Ctx) {
	x.line.state = tsoWBI
	c.send(c.homeTile(x.addr), interconnect.VNetRequest, &Msg{
		Type: MsgTWB, Addr: x.addr, Data: x.line.data, Dirty: x.line.dirty,
		Writer: c.id, Ts: x.line.wts, Epoch: x.line.wepoch,
		Requestor: c.id,
	})
}
