package testgen

import (
	"math/rand"
	"testing"

	"repro/internal/memsys"
)

func newGen(t *testing.T, cfg Config, seed int64) *Generator {
	t.Helper()
	g, err := NewGenerator(cfg, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	return g
}

func smallConfig() Config {
	return Config{
		Size:    64,
		Threads: 4,
		Layout:  memsys.MustLayout(1024, 16),
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err == nil {
		t.Error("zero config accepted")
	}
	if err := (Config{Size: 1, Threads: 0, Layout: memsys.MustLayout(64, 16)}).Validate(); err == nil {
		t.Error("zero threads accepted")
	}
	if err := smallConfig().Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestNewGeneratorRejectsBadBias(t *testing.T) {
	cfg := smallConfig()
	cfg.Bias = []Bias{{OpRead, -1}}
	if _, err := NewGenerator(cfg, rand.New(rand.NewSource(1))); err == nil {
		t.Error("negative bias accepted")
	}
	cfg.Bias = []Bias{{OpRead, 0}}
	if _, err := NewGenerator(cfg, rand.New(rand.NewSource(1))); err == nil {
		t.Error("all-zero bias accepted")
	}
}

func TestDefaultBiasMatchesTable3(t *testing.T) {
	// Table 3's distribution with the 2% fence slot carved out of the
	// write share (fences are the vocabulary the relaxed scenarios
	// need; Table 3 predates them).
	want := map[OpKind]int{
		OpRead: 50, OpReadAddrDp: 5, OpWrite: 40,
		OpRMW: 1, OpCacheFlush: 1, OpDelay: 1, OpFence: 2,
	}
	total := 0
	for _, b := range DefaultBias() {
		if want[b.Kind] != b.Weight {
			t.Errorf("bias %s = %d, want %d", b.Kind, b.Weight, want[b.Kind])
		}
		total += b.Weight
	}
	if total != 100 {
		t.Errorf("bias total = %d, want 100", total)
	}
}

func TestNewTestShape(t *testing.T) {
	g := newGen(t, smallConfig(), 1)
	tst := g.NewTest()
	if tst.Size() != 64 {
		t.Fatalf("Size = %d, want 64", tst.Size())
	}
	pool := make(map[memsys.Addr]bool)
	for _, a := range g.Pool() {
		pool[a] = true
	}
	perThread := make(map[int]int)
	for i, n := range tst.Nodes {
		if n.PID < 0 || n.PID >= 4 {
			t.Fatalf("node %d pid %d out of range", i, n.PID)
		}
		perThread[n.PID]++
		if n.Op.Kind.IsMemOp() && !pool[n.Op.Addr] {
			t.Fatalf("node %d address %v not in pool", i, n.Op.Addr)
		}
		if n.Op.Kind == OpDelay && (n.Op.Delay < 1 || n.Op.Delay > 8) {
			t.Fatalf("node %d delay %d out of range", i, n.Op.Delay)
		}
	}
	// Counting the total across threads must give back the size.
	total := 0
	for pid := 0; pid < 4; pid++ {
		total += len(tst.ThreadOps(pid))
	}
	if total != 64 {
		t.Fatalf("thread ops total = %d, want 64", total)
	}
}

func TestBiasDistribution(t *testing.T) {
	cfg := smallConfig()
	cfg.Size = 20000
	g := newGen(t, cfg, 42)
	tst := g.NewTest()
	counts := make(map[OpKind]int)
	for _, n := range tst.Nodes {
		counts[n.Op.Kind]++
	}
	// Reads should be close to 50%+5% of ops (ReadAddrDp is separate),
	// writes close to 42%.
	frac := func(k OpKind) float64 { return float64(counts[k]) / float64(cfg.Size) }
	if f := frac(OpRead); f < 0.45 || f > 0.55 {
		t.Errorf("Read fraction %.3f outside [0.45,0.55]", f)
	}
	if f := frac(OpWrite); f < 0.37 || f > 0.47 {
		t.Errorf("Write fraction %.3f outside [0.37,0.47]", f)
	}
	for _, k := range []OpKind{OpRMW, OpCacheFlush, OpDelay} {
		if f := frac(k); f > 0.03 {
			t.Errorf("%s fraction %.3f too high", k, f)
		}
	}
}

func TestRandomNodeConstrainedAddresses(t *testing.T) {
	g := newGen(t, smallConfig(), 3)
	constrained := g.Pool()[:2]
	allowed := map[memsys.Addr]bool{constrained[0]: true, constrained[1]: true}
	for i := 0; i < 200; i++ {
		n := g.RandomNode(constrained)
		if n.Op.Kind.IsMemOp() && !allowed[n.Op.Addr] {
			t.Fatalf("constrained node used address %v", n.Op.Addr)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	g := newGen(t, smallConfig(), 4)
	a := g.NewTest()
	b := a.Clone()
	b.Nodes[0].PID = (b.Nodes[0].PID + 1) % 4
	if a.Nodes[0].PID == b.Nodes[0].PID {
		t.Error("Clone aliases node storage")
	}
}

func TestDeterministicForSeed(t *testing.T) {
	a := newGen(t, smallConfig(), 99).NewTest()
	b := newGen(t, smallConfig(), 99).NewTest()
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			t.Fatalf("node %d differs across identical seeds", i)
		}
	}
}

func TestOpKindPredicates(t *testing.T) {
	memOps := []OpKind{OpRead, OpReadAddrDp, OpWrite, OpRMW, OpCacheFlush}
	for _, k := range memOps {
		if !k.IsMemOp() {
			t.Errorf("%s should be a mem op", k)
		}
	}
	if OpDelay.IsMemOp() {
		t.Error("Delay should not be a mem op")
	}
}

func TestTestStringRendering(t *testing.T) {
	tst := &Test{
		Nodes: []Node{
			{PID: 0, Op: Op{Kind: OpWrite, Addr: 0x1000}},
			{PID: 1, Op: Op{Kind: OpRead, Addr: 0x1000}},
			{PID: 1, Op: Op{Kind: OpDelay, Delay: 3}},
		},
		Threads: 2,
	}
	s := tst.String()
	if s == "" {
		t.Error("String rendered nothing")
	}
	if len(tst.Addresses()) != 1 {
		t.Errorf("Addresses = %v, want 1 entry", tst.Addresses())
	}
}
