// Package testgen implements McVerSi's test representation and
// pseudo-random test generation (§3.3).
//
// A test (chromosome) is a flat list of ⟨pid, op⟩ tuples (genes). The
// order of nodes within the list gives the code sequence; the sub-list of
// one pid is that thread's program order. Each operation maps to
// executable behaviour in the simulated machine and to one or more
// events of the memory model. The flat-list form makes the selective
// crossover's slot-wise recombination (Algorithm 1) efficient while
// preserving relative scheduling positions.
package testgen

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"repro/internal/memmodel"
	"repro/internal/memsys"
)

// OpKind enumerates the high-level operations of Table 3.
type OpKind uint8

const (
	// OpRead is a plain load into a register.
	OpRead OpKind = iota
	// OpReadAddrDp is a load whose address depends on the value of the
	// nearest preceding load of the same thread (address dependency).
	OpReadAddrDp
	// OpWrite is a store from a register.
	OpWrite
	// OpRMW is an atomic read-modify-write; on x86 this implies a full
	// fence.
	OpRMW
	// OpCacheFlush flushes the addressed cache line (clflush).
	OpCacheFlush
	// OpDelay is a constant delay using NOPs.
	OpDelay
	// OpFence is an explicit memory fence; Op.Fence selects the flavour
	// (full, store-store or load-load). Fences give generated tests the
	// vocabulary to discriminate the relaxed models: a weak-model
	// violation is only distinguishable from legal reordering when the
	// test can selectively re-impose the dropped order.
	OpFence

	numOpKinds
)

// FenceKind re-exports the memory-model fence flavours so test
// construction does not need to import memmodel.
type FenceKind = memmodel.FenceKind

// The fence flavours of OpFence.
const (
	FenceFull = memmodel.FenceFull
	FenceSS   = memmodel.FenceSS
	FenceLL   = memmodel.FenceLL
)

func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "Read"
	case OpReadAddrDp:
		return "ReadAddrDp"
	case OpWrite:
		return "Write"
	case OpRMW:
		return "RMW"
	case OpCacheFlush:
		return "CacheFlush"
	case OpDelay:
		return "Delay"
	case OpFence:
		return "Fence"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// IsMemOp reports whether the operation accesses a test memory address
// (Algorithm 1's is_memop: such ops have a valid addr attribute).
func (k OpKind) IsMemOp() bool {
	switch k {
	case OpRead, OpReadAddrDp, OpWrite, OpRMW, OpCacheFlush:
		return true
	default:
		return false
	}
}

// Op is one high-level operation.
type Op struct {
	Kind OpKind
	// Addr is the word-aligned target address for memory operations.
	Addr memsys.Addr
	// Delay is the NOP count for OpDelay.
	Delay int
	// Fence is the flavour for OpFence.
	Fence FenceKind
}

func (o Op) String() string {
	switch o.Kind {
	case OpDelay:
		return fmt.Sprintf("Delay(%d)", o.Delay)
	case OpFence:
		return fmt.Sprintf("Fence(%s)", o.Fence)
	default:
		return fmt.Sprintf("%s(%s)", o.Kind, o.Addr)
	}
}

// Node is one gene: an operation bound to a thread.
type Node struct {
	PID int
	Op  Op
}

// Test is one chromosome: a constant-size flat list of nodes plus the
// memory layout its addresses were drawn from.
type Test struct {
	Nodes  []Node
	Layout memsys.Layout
	// Threads is the number of hardware threads the test targets.
	Threads int
}

// Clone returns a deep copy of the test.
func (t *Test) Clone() *Test {
	c := &Test{
		Nodes:   append([]Node(nil), t.Nodes...),
		Layout:  t.Layout,
		Threads: t.Threads,
	}
	return c
}

// Size returns the total operation count across all threads.
func (t *Test) Size() int { return len(t.Nodes) }

// ThreadOps returns the operations of thread pid in program order.
func (t *Test) ThreadOps(pid int) []Op {
	var ops []Op
	for _, n := range t.Nodes {
		if n.PID == pid {
			ops = append(ops, n.Op)
		}
	}
	return ops
}

// Addresses returns the distinct word addresses used by memory operations.
func (t *Test) Addresses() map[memsys.Addr]bool {
	set := make(map[memsys.Addr]bool)
	for _, n := range t.Nodes {
		if n.Op.Kind.IsMemOp() {
			set[n.Op.Addr] = true
		}
	}
	return set
}

// String renders the test litmus-style, one column per thread.
func (t *Test) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "test[%d nodes, %d threads]\n", len(t.Nodes), t.Threads)
	for pid := 0; pid < t.Threads; pid++ {
		ops := t.ThreadOps(pid)
		fmt.Fprintf(&b, "  T%d:", pid)
		for _, op := range ops {
			fmt.Fprintf(&b, " %s;", op)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Bias is one entry of the operation-selection distribution (Table 3).
type Bias struct {
	Kind   OpKind
	Weight int
}

// DefaultBias returns the operation distribution: Table 3's mix (Read
// 50%, ReadAddrDp 5%, RMW 1%, CacheFlush 1%, Delay 1%) extended with a
// 2% fence slot carved out of the write share (Write 42% → 40%), so
// generated tests carry the ordering vocabulary the relaxed scenarios
// need. The fence flavour is drawn uniformly at generation time.
func DefaultBias() []Bias {
	return []Bias{
		{OpRead, 50},
		{OpReadAddrDp, 5},
		{OpWrite, 40},
		{OpRMW, 1},
		{OpCacheFlush, 1},
		{OpDelay, 1},
		{OpFence, 2},
	}
}

// Config parameterizes the pseudo-random generator (Table 3 plus the
// user constraints of §3.1: distribution of operations, memory address
// range, and stride).
type Config struct {
	// Size is the total operation count per test.
	Size int
	// Threads is the number of test threads.
	Threads int
	// Layout is the test-memory layout (size and stride).
	Layout memsys.Layout
	// Bias is the operation distribution; nil means DefaultBias.
	Bias []Bias
}

// delayMax bounds OpDelay NOP counts (inclusive).
const delayMax = 8

func (c Config) withDefaults() Config {
	if c.Bias == nil {
		c.Bias = DefaultBias()
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Size <= 0 {
		return fmt.Errorf("testgen: size must be positive, got %d", c.Size)
	}
	if c.Threads <= 0 {
		return fmt.Errorf("testgen: threads must be positive, got %d", c.Threads)
	}
	if c.Layout.Size <= 0 {
		return fmt.Errorf("testgen: layout is unset")
	}
	return nil
}

// Generator produces pseudo-random tests and nodes. It is the
// McVerSi-RAND baseline of §5.2.1 and the gene factory used by the GP
// operators' mutation step.
type Generator struct {
	cfg    Config
	pool   []memsys.Addr
	rng    *rand.Rand
	totalW int
}

// NewGenerator returns a generator drawing addresses from cfg.Layout's
// pool using the given seeded source.
func NewGenerator(cfg Config, rng *rand.Rand) (*Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	g := &Generator{cfg: cfg, pool: cfg.Layout.Pool(), rng: rng}
	for _, b := range cfg.Bias {
		if b.Weight < 0 {
			return nil, fmt.Errorf("testgen: negative bias weight for %s", b.Kind)
		}
		g.totalW += b.Weight
	}
	if g.totalW == 0 {
		return nil, fmt.Errorf("testgen: bias weights sum to zero")
	}
	return g, nil
}

// Pool returns the generator's address pool. Callers must not mutate it.
func (g *Generator) Pool() []memsys.Addr { return g.pool }

// randKind draws an operation kind from the bias distribution.
func (g *Generator) randKind() OpKind {
	n := g.rng.Intn(g.totalW)
	for _, b := range g.cfg.Bias {
		if n < b.Weight {
			return b.Kind
		}
		n -= b.Weight
	}
	return g.cfg.Bias[len(g.cfg.Bias)-1].Kind
}

// randAddr draws an address, preferring the constrained pool when
// non-empty (used by Algorithm 1's PBFA-biased mutation).
func (g *Generator) randAddr(constrained []memsys.Addr) memsys.Addr {
	if len(constrained) > 0 {
		return constrained[g.rng.Intn(len(constrained))]
	}
	return g.pool[g.rng.Intn(len(g.pool))]
}

// RandomOp generates one operation; constrained, when non-empty, limits
// memory-operation addresses.
func (g *Generator) RandomOp(constrained []memsys.Addr) Op {
	kind := g.randKind()
	op := Op{Kind: kind}
	if kind.IsMemOp() {
		op.Addr = g.randAddr(constrained)
	}
	if kind == OpDelay {
		op.Delay = 1 + g.rng.Intn(delayMax)
	}
	if kind == OpFence {
		op.Fence = FenceKind(g.rng.Intn(int(memmodel.NumFenceKinds)))
	}
	return op
}

// RandomNode generates one gene: a random thread and operation, with
// optionally constrained addresses (Algorithm 1: "Make random ⟨pid,op⟩,
// with addresses constrained to fitaddrs(test1) ∪ fitaddrs(test2)").
func (g *Generator) RandomNode(constrained []memsys.Addr) Node {
	return Node{
		PID: g.rng.Intn(g.cfg.Threads),
		Op:  g.RandomOp(constrained),
	}
}

// NewTest generates a fully random test of the configured size.
func (g *Generator) NewTest() *Test { return g.NewTestInto(new(Test)) }

// NewTestInto is NewTest into a test the caller owns: t is overwritten,
// its node storage reused, and returned. The draws are NewTest's.
func (g *Generator) NewTestInto(t *Test) *Test {
	t.Nodes = slices.Grow(t.Nodes[:0], g.cfg.Size)[:g.cfg.Size]
	t.Layout, t.Threads = g.cfg.Layout, g.cfg.Threads
	for i := range t.Nodes {
		t.Nodes[i] = g.RandomNode(nil)
	}
	return t
}
