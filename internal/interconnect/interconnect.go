// Package interconnect models the on-chip network of Table 2: a 2D mesh
// (2 rows × 4 columns for the 8-tile system) carrying coherence traffic
// on separate virtual networks. The model captures what matters for
// memory-consistency races: per-hop latency, seeded jitter, congestion
// back-pressure, point-to-point FIFO ordering within one (src, dst, vnet)
// channel, and — crucially — *no* ordering between different channels or
// virtual networks, which is what lets invalidations overtake data
// responses and create the transient-state races of §5.3.
package interconnect

import (
	"fmt"

	"repro/internal/sim"
)

// NodeID identifies a network endpoint.
type NodeID int

// VNet enumerates the virtual networks, mirroring Ruby's split of
// coherence traffic classes.
type VNet int

const (
	// VNetRequest carries requests (GETS/GETX/PUT...).
	VNetRequest VNet = iota
	// VNetResponse carries data and ack responses.
	VNetResponse
	// VNetForward carries forwarded requests and invalidations.
	VNetForward

	// NumVNets is the number of virtual networks.
	NumVNets
)

func (v VNet) String() string {
	switch v {
	case VNetRequest:
		return "req"
	case VNetResponse:
		return "resp"
	case VNetForward:
		return "fwd"
	default:
		return fmt.Sprintf("vnet%d", int(v))
	}
}

// The Table 2 mesh: 2 rows × 4 columns, 16B flits, with latencies
// chosen to land L2 round trips in the 30–80 cycle band and memory in
// the 120–230 band together with controller latencies.
const (
	// Rows and Cols are the mesh's shape.
	Rows, Cols = 2, 4
	// LinkLatency is the per-hop link traversal time in ticks.
	LinkLatency sim.Tick = 2
	// RouterLatency is the per-router pipeline latency in ticks.
	RouterLatency sim.Tick = 2
	// JitterMax is the maximum uniform random extra latency per
	// message; jitter is the controlled source of message-race
	// non-determinism between virtual networks.
	JitterMax sim.Tick = 12
	// CongestionWindow models back-pressure: each in-flight message on
	// a channel delays the next by this many ticks.
	CongestionWindow sim.Tick = 1
)

// timing is a network's latencies: the Table 2 constants, or none at
// all in the tests that order deliveries by the channel table alone.
type timing struct {
	link, router, jitterMax, congestion sim.Tick
}

// table2 is the mesh's timing.
var table2 = timing{LinkLatency, RouterLatency, JitterMax, CongestionWindow}

type node struct {
	row, col int
	// idx is the node's dense index, assigned in registration order; it
	// addresses the channel table.
	idx int
	// sink is the delivery callback the node's owner bound once and
	// registered: each message is one kernel event dispatched straight
	// to it, the payload as the event's arg (a pointer, so no boxing) and
	// the virtual network as its aux word.
	sink sim.Handler
}

// Network is the mesh. Not safe for concurrent use; the simulation is
// single-threaded by design.
type Network struct {
	sim *sim.Sim
	timing
	// nodes is indexed by NodeID (nil = unregistered); count is the
	// number of registered nodes.
	nodes []*node
	count int
	// nextFree enforces per-channel FIFO delivery: for the channel
	// (src, dst, vnet) — flat index (src.idx*laid+dst.idx)*NumVNets+vnet
	// — it holds the tick after the channel's last arrival, the earliest
	// tick the next message may arrive unclamped. Zero means no message
	// yet, which is also right at tick 0: nothing is earlier than it.
	// laid is the node count the table is laid out for; the first Send
	// after a registration brings it up to count.
	nextFree []sim.Tick
	laid     int
	// sent counts messages per vnet for statistics.
	sent [NumVNets]uint64
}

// New returns an empty Table 2 mesh on the given simulator.
func New(s *sim.Sim) *Network {
	return newNetwork(s, table2)
}

// newNetwork returns an empty mesh with timing t.
func newNetwork(s *sim.Sim, t timing) *Network {
	return &Network{sim: s, timing: t}
}

// node returns the registered node id, or nil.
func (n *Network) node(id NodeID) *node {
	if id < 0 || int(id) >= len(n.nodes) {
		return nil
	}
	return n.nodes[id]
}

// Register attaches a node at mesh position (row, col) whose messages
// are delivered to deliver(payload, vnet). Multiple logical nodes (an
// L1, its co-located L2 tile) may share a position.
func (n *Network) Register(id NodeID, deliver sim.Handler, row, col int) error {
	if row < 0 || row >= Rows || col < 0 || col >= Cols {
		return fmt.Errorf("interconnect: position (%d,%d) outside %dx%d mesh", row, col, Rows, Cols)
	}
	if id < 0 {
		return fmt.Errorf("interconnect: negative node id %d", id)
	}
	if n.node(id) != nil {
		return fmt.Errorf("interconnect: node %d already registered", id)
	}
	for int(id) >= len(n.nodes) {
		n.nodes = append(n.nodes, nil)
	}
	n.nodes[id] = &node{row: row, col: col, idx: n.count, sink: deliver}
	n.count++
	return nil
}

// layOut sizes the channel table for every registered node, keeping the
// FIFO state of channels already in use. A machine registers all its
// nodes before the first message, so its table is laid out once.
func (n *Network) layOut() {
	old, oldRow := n.nextFree, n.laid*int(NumVNets)
	n.laid = n.count
	newRow := n.laid * int(NumVNets)
	n.nextFree = make([]sim.Tick, n.laid*newRow)
	for src := 0; src*oldRow < len(old); src++ {
		copy(n.nextFree[src*newRow:], old[src*oldRow:(src+1)*oldRow])
	}
}

// Reset forgets all traffic: every channel is idle again and the sent
// counters restart, as on a network that has carried no message. The
// registered nodes stay.
func (n *Network) Reset() {
	clear(n.nextFree)
	n.sent = [NumVNets]uint64{}
}

// Hops returns the Manhattan distance between two registered nodes.
func (n *Network) Hops(src, dst NodeID) int {
	return hops(n.node(src), n.node(dst))
}

func hops(a, b *node) int {
	dr, dc := a.row-b.row, a.col-b.col
	if dr < 0 {
		dr = -dr
	}
	if dc < 0 {
		dc = -dc
	}
	return dr + dc
}

// Sent returns the number of messages sent on vnet.
func (n *Network) Sent(v VNet) uint64 { return n.sent[v] }

// Send routes payload from src to dst on vnet. Delivery is scheduled at
// now + route latency + jitter, clamped so deliveries within one channel
// stay FIFO. Messages on different channels (different endpoints or
// vnets) may be reordered freely — the race surface.
func (n *Network) Send(src, dst NodeID, vnet VNet, payload interface{}) {
	from, to := n.node(src), n.node(dst)
	if to == nil {
		panic(fmt.Sprintf("interconnect: send to unregistered node %d", dst))
	}
	h := hops(from, to)
	lat := n.router*sim.Tick(h+1) + n.link*sim.Tick(h)
	if n.jitterMax > 0 {
		lat += sim.Tick(n.sim.Rand().Int63n(int64(n.jitterMax) + 1))
	}
	arrive := n.sim.Now() + lat
	if n.laid != n.count {
		n.layOut()
	}
	free := &n.nextFree[(from.idx*n.laid+to.idx)*int(NumVNets)+int(vnet)]
	if arrive < *free {
		arrive = *free + n.congestion
	}
	*free = arrive + 1
	n.sent[vnet]++
	n.sim.ScheduleEvent(arrive-n.sim.Now(), to.sink, payload, uint64(vnet))
}

// LocalDeliver schedules a message to a node from itself with the given
// fixed latency, bypassing routing (used for a controller's mandatory
// queue and recycled messages).
func (n *Network) LocalDeliver(dst NodeID, vnet VNet, delay sim.Tick, payload interface{}) {
	to := n.node(dst)
	if to == nil {
		panic(fmt.Sprintf("interconnect: local delivery to unregistered node %d", dst))
	}
	n.sim.ScheduleEvent(delay, to.sink, payload, uint64(vnet))
}
