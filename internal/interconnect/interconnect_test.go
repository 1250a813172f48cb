package interconnect

import (
	"testing"

	"repro/internal/sim"
)

type recorder struct {
	msgs []interface{}
	nets []VNet
	at   []sim.Tick
	s    *sim.Sim
}

// deliver is the recorder's delivery handler.
func (r *recorder) deliver(payload any, vnet uint64) {
	r.msgs = append(r.msgs, payload)
	r.nets = append(r.nets, VNet(vnet))
	r.at = append(r.at, r.s.Now())
}

func build(t *testing.T, seed int64, tm timing) (*sim.Sim, *Network, map[NodeID]*recorder) {
	t.Helper()
	s := sim.New(seed)
	n := newNetwork(s, tm)
	recs := make(map[NodeID]*recorder)
	id := NodeID(0)
	for r := 0; r < Rows; r++ {
		for c := 0; c < Cols; c++ {
			rec := &recorder{s: s}
			if err := n.Register(id, rec.deliver, r, c); err != nil {
				t.Fatalf("Register: %v", err)
			}
			recs[id] = rec
			id++
		}
	}
	return s, n, recs
}

func TestRegisterValidation(t *testing.T) {
	s := sim.New(1)
	n := New(s)
	if err := n.Register(0, (&recorder{s: s}).deliver, 0, 0); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := n.Register(0, (&recorder{s: s}).deliver, 0, 1); err == nil {
		t.Error("duplicate registration accepted")
	}
	if err := n.Register(1, (&recorder{s: s}).deliver, 5, 0); err == nil {
		t.Error("out-of-mesh position accepted")
	}
}

func TestHops(t *testing.T) {
	_, n, _ := build(t, 1, table2)
	// Node 0 at (0,0), node 7 at (1,3): 4 hops.
	if got := n.Hops(0, 7); got != 4 {
		t.Fatalf("Hops(0,7) = %d, want 4", got)
	}
	if got := n.Hops(3, 3); got != 0 {
		t.Fatalf("Hops(3,3) = %d, want 0", got)
	}
}

func TestDeliveryAndLatencyBounds(t *testing.T) {
	s, n, recs := build(t, 2, table2)
	n.Send(0, 7, VNetRequest, "hello")
	s.Run()
	rec := recs[7]
	if len(rec.msgs) != 1 || rec.msgs[0] != "hello" || rec.nets[0] != VNetRequest {
		t.Fatalf("delivery wrong: %+v", rec)
	}
	hops := 4
	min := RouterLatency*sim.Tick(hops+1) + LinkLatency*sim.Tick(hops)
	max := min + JitterMax
	if rec.at[0] < min || rec.at[0] > max {
		t.Fatalf("arrival %d outside [%d,%d]", rec.at[0], min, max)
	}
}

func TestChannelFIFO(t *testing.T) {
	// Messages on one (src,dst,vnet) channel always arrive in order,
	// whatever the jitter.
	for seed := int64(0); seed < 20; seed++ {
		s, n, recs := build(t, seed, table2)
		for i := 0; i < 50; i++ {
			n.Send(0, 5, VNetResponse, i)
		}
		s.Run()
		rec := recs[5]
		if len(rec.msgs) != 50 {
			t.Fatalf("seed %d: got %d messages", seed, len(rec.msgs))
		}
		for i, m := range rec.msgs {
			if m.(int) != i {
				t.Fatalf("seed %d: message %d out of order (got %v)", seed, i, m)
			}
		}
		for i := 1; i < len(rec.at); i++ {
			if rec.at[i] <= rec.at[i-1] {
				t.Fatalf("seed %d: arrivals not strictly increasing", seed)
			}
		}
	}
}

func TestCrossVNetReorderingPossible(t *testing.T) {
	// A later message on a different vnet can overtake an earlier one:
	// the race surface that creates IS_I-style transient states. With
	// jitter up to 12 some seed must reorder.
	reordered := false
	for seed := int64(0); seed < 64 && !reordered; seed++ {
		s, n, recs := build(t, seed, table2)
		n.Send(1, 2, VNetResponse, "data")
		n.Send(1, 2, VNetForward, "inv")
		s.Run()
		rec := recs[2]
		if len(rec.msgs) == 2 && rec.msgs[0] == "inv" {
			reordered = true
		}
	}
	if !reordered {
		t.Error("no seed reordered across vnets; race surface missing")
	}
}

func TestLocalDeliver(t *testing.T) {
	s, n, recs := build(t, 3, table2)
	n.LocalDeliver(4, VNetRequest, 7, "self")
	s.Run()
	rec := recs[4]
	if len(rec.msgs) != 1 || rec.at[0] != 7 {
		t.Fatalf("LocalDeliver wrong: %+v", rec)
	}
}

func TestSentCounters(t *testing.T) {
	s, n, _ := build(t, 4, table2)
	n.Send(0, 1, VNetRequest, 1)
	n.Send(0, 1, VNetRequest, 2)
	n.Send(0, 1, VNetResponse, 3)
	s.Run()
	if n.Sent(VNetRequest) != 2 || n.Sent(VNetResponse) != 1 || n.Sent(VNetForward) != 0 {
		t.Fatal("Sent counters wrong")
	}
}

func TestDeterministicDelivery(t *testing.T) {
	run := func() []sim.Tick {
		s, n, recs := build(t, 11, table2)
		for i := 0; i < 20; i++ {
			n.Send(NodeID(i%4), NodeID(4+i%4), VNet(i%int(NumVNets)), i)
		}
		s.Run()
		var all []sim.Tick
		for id := NodeID(0); id < 8; id++ {
			all = append(all, recs[id].at...)
		}
		return all
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different delivery counts across identical runs")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("non-deterministic delivery times")
		}
	}
}

func TestVNetString(t *testing.T) {
	if VNetRequest.String() != "req" || VNetResponse.String() != "resp" || VNetForward.String() != "fwd" {
		t.Error("VNet strings wrong")
	}
}

// zeroLatency is a network in which every unclamped message would arrive
// the tick it is sent: only the channel table orders deliveries.
var zeroLatency = timing{}

func TestChannelFIFOFromTickZero(t *testing.T) {
	// At tick 0 with zero latency the first message of a channel arrives
	// at tick 0 — the tick that also encodes "no previous arrival". The
	// table must still clamp every later message of that channel behind
	// it, one tick apart, and independently per (src, dst, vnet).
	s, n, recs := build(t, 1, zeroLatency)
	for i := 0; i < 4; i++ {
		n.Send(0, 5, VNetRequest, i)
	}
	n.Send(0, 5, VNetResponse, "other vnet")
	n.Send(1, 5, VNetRequest, "other src")
	n.Send(0, 6, VNetRequest, "other dst")
	s.Run()
	rec := recs[5]
	var req []sim.Tick
	for i, m := range rec.msgs {
		switch m {
		case "other vnet", "other src":
			if rec.at[i] != 0 {
				t.Errorf("%v delayed to tick %d by another channel's traffic", m, rec.at[i])
			}
		default:
			if m.(int) != len(req) {
				t.Fatalf("channel delivered %v as message %d", m, len(req))
			}
			req = append(req, rec.at[i])
		}
	}
	for i, at := range req {
		if at != sim.Tick(i) {
			t.Fatalf("arrivals %v, want one per tick from tick 0", req)
		}
	}
	if len(req) != 4 {
		t.Fatalf("channel delivered %d of 4 messages", len(req))
	}
	if at := recs[6].at; len(at) != 1 || at[0] != 0 {
		t.Errorf("other dst arrived at %v, want [0]", at)
	}
}

func TestRegisterAfterSendKeepsChannelState(t *testing.T) {
	// Registering a node re-lays out the channel table; channels already
	// in use must keep their FIFO clamp, and channels of the new node
	// start empty.
	s := sim.New(1)
	n := newNetwork(s, zeroLatency)
	recs := map[NodeID]*recorder{}
	register := func(id NodeID) {
		recs[id] = &recorder{s: s}
		if err := n.Register(id, recs[id].deliver, 0, 0); err != nil {
			t.Fatalf("Register(%d): %v", id, err)
		}
	}
	register(3)
	register(64) // sparse ids, dense table
	n.Send(3, 64, VNetForward, "a")
	n.Send(64, 3, VNetForward, "x")
	register(128)
	register(0)
	n.Send(3, 64, VNetForward, "b")
	n.Send(64, 3, VNetForward, "y")
	n.Send(3, 128, VNetForward, "fresh")
	n.Send(0, 3, VNetForward, "fresh too")
	s.Run()
	if at := recs[64].at; len(at) != 2 || at[0] != 0 || at[1] != 1 {
		t.Errorf("3→64 arrivals %v, want [0 1]", at)
	}
	if got := recs[3]; len(got.at) != 3 || got.msgs[0] != "x" || got.at[0] != 0 || got.msgs[2] != "y" || got.at[2] != 1 {
		t.Errorf("deliveries at node 3: %v at %v, want x@0, fresh too@0, y@1", got.msgs, got.at)
	}
	if at := recs[128].at; len(at) != 1 || at[0] != 0 {
		t.Errorf("3→128 arrivals %v, want [0]", at)
	}
}

func TestUnregisteredEndpointsPanic(t *testing.T) {
	_, n, _ := build(t, 1, table2)
	panicOf := func(fn func()) (v any) {
		defer func() { v = recover() }()
		fn()
		return nil
	}
	for _, dst := range []NodeID{8, 1000, -1} {
		want := "interconnect: send to unregistered node " + map[NodeID]string{8: "8", 1000: "1000", -1: "-1"}[dst]
		if got := panicOf(func() { n.Send(0, dst, VNetRequest, nil) }); got != want {
			t.Errorf("Send to %d panicked with %v, want %q", dst, got, want)
		}
	}
	if got := panicOf(func() { n.LocalDeliver(9, VNetRequest, 1, nil) }); got != "interconnect: local delivery to unregistered node 9" {
		t.Errorf("LocalDeliver panicked with %v", got)
	}
	// An unregistered source has no mesh position to route from: the
	// nil node dereference it always was.
	for _, src := range []NodeID{8, 1000, -1} {
		err, ok := panicOf(func() { n.Send(src, 0, VNetRequest, nil) }).(error)
		if !ok || err.Error() != "runtime error: invalid memory address or nil pointer dereference" {
			t.Errorf("Send from %d panicked with %v, want a nil dereference", src, err)
		}
	}
}

func TestSendAllocatesNothing(t *testing.T) {
	s := sim.New(1)
	n := New(s)
	sink := sim.Handler(func(any, uint64) {})
	for _, at := range []struct {
		id       NodeID
		row, col int
	}{{0, 0, 0}, {7, 1, 3}} {
		if err := n.Register(at.id, sink, at.row, at.col); err != nil {
			t.Fatal(err)
		}
	}
	payload := &struct{}{}
	send := func() {
		n.Send(0, 7, VNetRequest, payload)
		n.Send(7, 0, VNetResponse, payload)
		s.Run()
	}
	send() // grow the kernel's event freelist
	if got := testing.AllocsPerRun(200, send); got != 0 {
		t.Fatalf("Send allocates %.1f objects per round trip, want 0", got)
	}
}

func TestChannelTableLaidOutOnce(t *testing.T) {
	// A machine registers its 17 nodes before the first message: the
	// table is sized once, for all of them, by that message.
	s := sim.New(1)
	n := New(s)
	sink := sim.Handler(func(any, uint64) {})
	for id := NodeID(0); id < 17; id++ {
		if err := n.Register(id, sink, int(id)%2, int(id)%4); err != nil {
			t.Fatal(err)
		}
	}
	if len(n.nextFree) != 0 {
		t.Fatalf("Register laid out %d channels before any message", len(n.nextFree))
	}
	n.Send(0, 16, VNetRequest, nil)
	if want := 17 * 17 * int(NumVNets); len(n.nextFree) != want {
		t.Fatalf("first Send laid out %d channels, want %d", len(n.nextFree), want)
	}
}

func TestResetIdlesChannels(t *testing.T) {
	// Three messages at tick 0 leave the channel busy until tick 3. On a
	// reset network (and simulator) the next message arrives at tick 0
	// again, and the counters restart.
	s, n, recs := build(t, 1, zeroLatency)
	for i := 0; i < 3; i++ {
		n.Send(0, 5, VNetRequest, i)
	}
	s.Reset(1)
	n.Reset()
	if got := n.Sent(VNetRequest); got != 0 {
		t.Fatalf("Sent = %d after Reset, want 0", got)
	}
	n.Send(0, 5, VNetRequest, "after")
	s.Run()
	if rec := recs[5]; len(rec.at) != 1 || rec.at[0] != 0 || rec.msgs[0] != "after" {
		t.Fatalf("after Reset node 5 received %v at %v, want only \"after\" at tick 0", rec.msgs, rec.at)
	}
}
