package memsys

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestAddrGeometry(t *testing.T) {
	cases := []struct {
		addr     Addr
		line     Addr
		wordIdx  int
		wordAddr Addr
	}{
		{0, 0, 0, 0},
		{7, 0, 0, 0},
		{8, 0, 1, 8},
		{63, 0, 7, 56},
		{64, 64, 0, 64},
		{0x10000010, 0x10000000, 2, 0x10000010},
	}
	for _, c := range cases {
		if got := c.addr.LineAddr(); got != c.line {
			t.Errorf("LineAddr(%v) = %v, want %v", c.addr, got, c.line)
		}
		if got := c.addr.WordIndex(); got != c.wordIdx {
			t.Errorf("WordIndex(%v) = %d, want %d", c.addr, got, c.wordIdx)
		}
		if got := c.addr.WordAddr(); got != c.wordAddr {
			t.Errorf("WordAddr(%v) = %v, want %v", c.addr, got, c.wordAddr)
		}
	}
}

func TestAddrGeometryProperties(t *testing.T) {
	prop := func(raw uint64) bool {
		a := Addr(raw)
		la := a.LineAddr()
		return la <= a && a-la < LineSize &&
			la.WordIndex() == 0 &&
			a.WordAddr().WordIndex() == a.WordIndex()
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestLineDataWords(t *testing.T) {
	var d LineData
	for i := 0; i < WordsPerLine; i++ {
		d.SetWord(Addr(i*WordSize), uint64(i+1))
	}
	for i := 0; i < WordsPerLine; i++ {
		if got := d.Word(Addr(i * WordSize)); got != uint64(i+1) {
			t.Errorf("word %d = %d, want %d", i, got, i+1)
		}
	}
	c := d
	c.SetWord(0, 99)
	if d.Word(0) == 99 {
		t.Error("assignment aliases original line data")
	}
}

func TestMemoryReadWrite(t *testing.T) {
	m := NewMemory()
	if got := m.ReadWord(0x1000); got != 0 {
		t.Fatalf("fresh memory reads %d, want 0", got)
	}
	m.WriteWord(0x1008, 42)
	if got := m.ReadWord(0x1008); got != 42 {
		t.Fatalf("ReadWord = %d, want 42", got)
	}
	if got := m.ReadWord(0x1000); got != 0 {
		t.Fatalf("neighbour word = %d, want 0", got)
	}
	line := m.ReadLine(0x1000)
	if line[1] != 42 {
		t.Fatalf("ReadLine word1 = %d, want 42", line[1])
	}
	line[2] = 7
	m.WriteLine(0x1000, line)
	if got := m.ReadWord(0x1010); got != 7 {
		t.Fatalf("after WriteLine word2 = %d, want 7", got)
	}
	m.Clear()
	if got := m.ReadWord(0x1008); got != 0 {
		t.Fatalf("after Clear = %d, want 0", got)
	}
}

func TestNewLayoutValidation(t *testing.T) {
	if _, err := NewLayout(0, 16); err == nil {
		t.Error("size 0 accepted")
	}
	if _, err := NewLayout(1024, 0); err == nil {
		t.Error("stride 0 accepted")
	}
	if _, err := NewLayout(1024, 12); err == nil {
		t.Error("stride not multiple of word accepted")
	}
	if _, err := NewLayout(1000, 16); err == nil {
		t.Error("size not multiple of stride accepted")
	}
	if _, err := NewLayout(1024, 16); err != nil {
		t.Errorf("valid layout rejected: %v", err)
	}
}

func TestLayoutPartitioning(t *testing.T) {
	// The paper's 8KB/16B configuration: 16 partitions of 512B
	// separated by 1MB (§5.2.1).
	l := MustLayout(8192, 16)
	pool := l.Pool()
	if len(pool) != 8192/16 {
		t.Fatalf("pool size = %d, want %d", len(pool), 8192/16)
	}
	// First partition starts at Base, second at Base+1MB.
	if pool[0] != l.Base {
		t.Errorf("pool[0] = %v, want %v", pool[0], l.Base)
	}
	found := false
	for _, a := range pool {
		if a == l.Base+PartitionSeparation {
			found = true
		}
		if off := uint64(a - l.Base); off/PartitionSeparation >= 16 || off%PartitionSeparation >= PartitionSize {
			t.Fatalf("pool address %v outside the 16 partitions", a)
		}
	}
	if !found {
		t.Error("second partition start missing from pool")
	}
}

func TestLayoutConflictSets(t *testing.T) {
	// All partitions must map to the same L1 set range: for a 32KB
	// 4-way 64B-line L1 (128 sets), a 1MB separation aliases set
	// indices, which is what forces capacity evictions at 8KB.
	l := MustLayout(8192, 16)
	const l1Sets = 128
	setOf := func(a Addr) uint64 { return (uint64(a) / LineSize) % l1Sets }
	want := setOf(l.Base)
	for p := 0; p < l.Size/PartitionSize; p++ {
		if got := setOf(l.Translate(p * PartitionSize)); got != want {
			t.Fatalf("partition %d maps to set %d, want %d (no aliasing)", p, got, want)
		}
	}
}

func TestLayoutLines(t *testing.T) {
	l := MustLayout(1024, 16)
	lines := l.Lines()
	// 1KB over 2 partitions = 16 lines of 64B.
	if len(lines) != 16 {
		t.Fatalf("Lines = %d, want 16", len(lines))
	}
	for i := 1; i < len(lines); i++ {
		if lines[i] <= lines[i-1] {
			t.Fatal("Lines not strictly sorted")
		}
	}
}

func TestLayoutTranslateRoundTrip(t *testing.T) {
	l := MustLayout(8192, 16)
	prop := func(raw uint16) bool {
		off := int(raw) % l.Size
		phys := int(l.Translate(off) - l.Base)
		return phys/PartitionSeparation*PartitionSize+phys%PartitionSeparation == off
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestSortAddrsMatchesSlicesSort: SortAddrs, and the radix sort at every
// size, order every shape of address set as slices.Sort does — short and
// long, with repeats, with bytes all addresses share, and differing in
// every byte up to the top one — and reuse their scratch.
func TestSortAddrsMatchesSlicesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var scratch []Addr
	for _, n := range []int{0, 1, 2, 63, 64, 65, 386, 1000, 5000} {
		for _, mask := range []Addr{0xf0, 0x1f0, 0x10f001f0, 0xff00ff00ff00ff00, ^Addr(0)} {
			addrs := make([]Addr, n)
			for i := range addrs {
				addrs[i] = 0x1000_0000 | Addr(rng.Uint64())&mask
				if i > 0 && rng.Intn(4) == 0 {
					addrs[i] = addrs[rng.Intn(i)]
				}
			}
			want := slices.Clone(addrs)
			slices.Sort(want)
			radix := slices.Clone(addrs)
			scratch = SortAddrs(addrs, scratch)
			if !slices.Equal(addrs, want) {
				t.Fatalf("%d addresses under mask %#x: sorted to %v, want %v", n, mask, addrs, want)
			}
			if scratch = radixSort(radix, scratch); !slices.Equal(radix, want) {
				t.Fatalf("%d addresses under mask %#x: radixSort sorted to %v, want %v", n, mask, radix, want)
			}
		}
	}
	addrs := make([]Addr, 1000)
	for i := range addrs {
		addrs[i] = Addr(rng.Uint64())
	}
	if allocs := testing.AllocsPerRun(10, func() { scratch = SortAddrs(addrs, scratch) }); allocs != 0 {
		t.Errorf("sorting through grown scratch allocates %.0f times", allocs)
	}
}

// BenchmarkSortAddrs times radixSort against slices.Sort on addresses
// drawn, with repeats, from the pools of the sweeps' layout (1 KiB), the
// oracle corpus's (8 KiB) and a wide one (1 MiB), at set sizes around
// radixFrom and at a corpus trace's 386 initial reads. Each iteration
// sorts the next of 64 sets, as a run sorts a new set each time: one set
// sorted over and over is learnt by the branch predictor, which flatters
// slices.Sort five times over on the corpus's sets.
func BenchmarkSortAddrs(b *testing.B) {
	for _, size := range []int{1 << 10, 8 << 10, 1 << 20} {
		pool := MustLayout(size, 16).Pool()
		for _, n := range []int{16, 32, 48, 64, 96, 128, 386} {
			rng := rand.New(rand.NewSource(1))
			in := make([][]Addr, 64)
			for k := range in {
				in[k] = make([]Addr, n)
				for i := range in[k] {
					in[k][i] = pool[rng.Intn(len(pool))]
				}
			}
			addrs := make([]Addr, n)
			var scratch []Addr
			for _, sorter := range []struct {
				name string
				sort func()
			}{
				{"slices", func() { slices.Sort(addrs) }},
				{"radix", func() { scratch = radixSort(addrs, scratch) }},
			} {
				b.Run(fmt.Sprintf("layout=%d/n=%d/%s", size, n, sorter.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						copy(addrs, in[i%len(in)])
						sorter.sort()
					}
				})
			}
		}
	}
}
