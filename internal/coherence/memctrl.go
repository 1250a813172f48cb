package coherence

import (
	"repro/internal/interconnect"
	"repro/internal/memsys"
	"repro/internal/sim"
)

// Memory access latency: uniform in [memAccessMin, memAccessMin +
// memAccessJitter], which together with network traversal lands round
// trips in Table 2's 120–230 cycle band.
const (
	memAccessMin    sim.Tick = 100
	memAccessJitter sim.Tick = 80
)

// MemCtrl is the memory controller: it owns the flat functional memory
// and services line reads and writebacks with the Table 2 memory latency
// band.
type MemCtrl struct {
	sim  *sim.Sim
	net  *interconnect.Network
	mem  *memsys.Memory
	msgs *MsgPool

	// meta retains per-line writer/timestamp metadata written back by
	// the TSO-CC L2, so the acquire rule keeps working across L2
	// evictions. MESI writebacks carry Writer = -1 and clear it.
	meta map[memsys.Addr]memMeta

	// deliverH and serveReadH are the pre-bound delivery and
	// access-latency callbacks (zero-alloc schedule path); the message
	// itself is the event argument.
	deliverH, serveReadH sim.Handler

	reads, writes uint64
}

type memMeta struct {
	writer    int
	ts, epoch uint32
}

// NewMemCtrl creates the controller and registers it on the network at
// position (0, 0). msgs is the machine's shared message pool.
func NewMemCtrl(s *sim.Sim, net *interconnect.Network, mem *memsys.Memory, msgs *MsgPool) (*MemCtrl, error) {
	m := &MemCtrl{sim: s, net: net, mem: mem, msgs: msgs, meta: make(map[memsys.Addr]memMeta)}
	m.deliverH = func(arg any, _ uint64) { m.deliver(arg.(*Msg)) }
	m.serveReadH = func(arg any, _ uint64) { m.serveRead(arg.(*Msg)) }
	if err := net.Register(MemNode, m.deliverH, 0, 0); err != nil {
		return nil, err
	}
	return m, nil
}

// Reset returns the controller to its just-built state: memory all zero,
// no retained line metadata, counters at zero.
func (m *MemCtrl) Reset() {
	m.mem.Clear()
	clear(m.meta)
	m.reads, m.writes = 0, 0
}

// ClearMeta forgets the timestamp metadata of a line, used when the host
// interface re-initializes test memory (the old writer/timestamp pairing
// no longer describes the zeroed contents).
func (m *MemCtrl) ClearMeta(addr memsys.Addr) { delete(m.meta, addr.LineAddr()) }

// Stats returns the served read and write counts.
func (m *MemCtrl) Stats() (reads, writes uint64) { return m.reads, m.writes }

// deliver receives a message from the network.
func (m *MemCtrl) deliver(msg *Msg) {
	switch msg.Type {
	case MsgMemRead:
		m.reads++
		lat := memAccessMin + sim.Tick(m.sim.Rand().Int63n(int64(memAccessJitter)+1))
		m.sim.ScheduleEvent(lat, m.serveReadH, msg, 0)
	case MsgMemWrite:
		m.writes++
		m.mem.WriteLine(msg.Addr, msg.Data)
		m.meta[msg.Addr.LineAddr()] = memMeta{writer: msg.Writer, ts: msg.Ts, epoch: msg.Epoch}
		m.msgs.release(msg)
	default:
		panic("memctrl: unexpected message " + msg.Type.String())
	}
}

// serveRead completes a MsgMemRead after the access latency: read the
// line, attach retained writer/timestamp metadata, respond.
func (m *MemCtrl) serveRead(msg *Msg) {
	meta, ok := m.meta[msg.Addr.LineAddr()]
	if !ok {
		meta = memMeta{writer: -1}
	}
	m.net.Send(MemNode, msg.Src, interconnect.VNetResponse, m.msgs.alloc(&Msg{
		Type:   MsgMemData,
		Addr:   msg.Addr,
		Src:    MemNode,
		Data:   m.mem.ReadLine(msg.Addr),
		Writer: meta.writer,
		Ts:     meta.ts,
		Epoch:  meta.epoch,
	}))
	m.msgs.release(msg)
}
