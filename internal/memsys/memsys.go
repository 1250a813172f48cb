// Package memsys provides the memory-system geometry shared by every
// substrate in the McVerSi reproduction: byte addresses, 64-byte cache
// lines subdivided into eight 8-byte words, line data containers, a flat
// functional memory, and the paper's partitioned test-memory layout
// (§5.2.1: contiguous 512B blocks whose start addresses are separated by
// 1MB, so that larger test memories force both L1 and L2 conflict
// evictions).
package memsys

import (
	"fmt"
	"slices"
	"sort"
)

// Geometry constants. These mirror Table 2 of the paper (64B lines) and
// the x86-64 word size used by the generated tests.
const (
	// LineSize is the cache line size in bytes.
	LineSize = 64
	// WordSize is the access granularity of generated tests in bytes.
	WordSize = 8
	// WordsPerLine is the number of test-addressable words per line.
	WordsPerLine = LineSize / WordSize

	// PartitionSize is the size of one contiguous test-memory block
	// (§5.2.1: "contiguous blocks of 512B").
	PartitionSize = 512
	// PartitionSeparation is the physical distance between the start
	// addresses of consecutive partitions (§5.2.1: "separated by a
	// range of 1MB").
	PartitionSeparation = 1 << 20
)

// Addr is a byte address in the simulated physical address space.
type Addr uint64

// LineAddr returns the address of the cache line containing a.
func (a Addr) LineAddr() Addr { return a &^ (LineSize - 1) }

// WordIndex returns the index (0..WordsPerLine-1) of the word containing a.
func (a Addr) WordIndex() int { return int(a>>3) & (WordsPerLine - 1) }

// WordAddr returns the word-aligned address containing a.
func (a Addr) WordAddr() Addr { return a &^ (WordSize - 1) }

func (a Addr) String() string { return fmt.Sprintf("0x%x", uint64(a)) }

// LineData holds the data of one cache line as eight 64-bit words.
// Values are copied by assignment.
type LineData [WordsPerLine]uint64

// Word returns the word of d addressed by a (a need not be line-aligned).
func (d *LineData) Word(a Addr) uint64 { return d[a.WordIndex()] }

// SetWord stores v into the word of d addressed by a.
func (d *LineData) SetWord(a Addr, v uint64) { d[a.WordIndex()] = v }

// Memory is the flat functional backing store of the simulated machine.
// Lines absent from the map read as zero, matching the paper's "initially
// all memory is zero" checker convention (§4.1).
type Memory struct {
	lines map[Addr]*LineData
}

// NewMemory returns an empty (all-zero) memory.
func NewMemory() *Memory {
	return &Memory{lines: make(map[Addr]*LineData)}
}

// ReadLine returns a copy of the line containing a.
func (m *Memory) ReadLine(a Addr) LineData {
	if l, ok := m.lines[a.LineAddr()]; ok {
		return *l
	}
	return LineData{}
}

// WriteLine replaces the line containing a with d.
func (m *Memory) WriteLine(a Addr, d LineData) {
	l, ok := m.lines[a.LineAddr()]
	if !ok {
		// A line of its own, not &d: taking the parameter's address
		// would move it to the heap on every call, hit or miss.
		l = new(LineData)
		m.lines[a.LineAddr()] = l
	}
	*l = d
}

// ReadWord returns the word at a.
func (m *Memory) ReadWord(a Addr) uint64 {
	if l, ok := m.lines[a.LineAddr()]; ok {
		return l.Word(a)
	}
	return 0
}

// WriteWord stores v at word address a.
func (m *Memory) WriteWord(a Addr, v uint64) {
	la := a.LineAddr()
	l, ok := m.lines[la]
	if !ok {
		l = &LineData{}
		m.lines[la] = l
	}
	l.SetWord(a, v)
}

// Clear zeroes all memory in place: the lines written so far stay
// allocated (a zero line reads the same as an absent one), so a memory
// cleared between uses settles at its working set.
func (m *Memory) Clear() {
	for _, l := range m.lines {
		*l = LineData{}
	}
}

// Layout describes the usable test-memory address range of a campaign
// (Table 3: "Test memory (stride)"). Size is the logical usable range in
// bytes; Stride constrains generated base addresses to multiples of the
// stride. The logical range is scattered into PartitionSize blocks
// separated by PartitionSeparation so that cache-capacity evictions occur
// for larger sizes (§5.2.1).
type Layout struct {
	// Base is the physical address of the first partition.
	Base Addr
	// Size is the logical usable address-range size in bytes.
	Size int
	// Stride is the base-address granularity in bytes; it must be a
	// multiple of WordSize.
	Stride int
}

// DefaultBase is the physical base used for test memory. It is line- and
// partition-aligned and far away from address zero to catch accidental
// zero-address use.
const DefaultBase Addr = 0x10000000

// NewLayout returns a Layout for the given logical size and stride,
// validating the paper's constraints.
func NewLayout(size, stride int) (Layout, error) {
	switch {
	case size <= 0:
		return Layout{}, fmt.Errorf("memsys: layout size must be positive, got %d", size)
	case stride <= 0 || stride%WordSize != 0:
		return Layout{}, fmt.Errorf("memsys: stride must be a positive multiple of %d, got %d", WordSize, stride)
	case size%stride != 0:
		return Layout{}, fmt.Errorf("memsys: size %d must be a multiple of stride %d", size, stride)
	}
	return Layout{Base: DefaultBase, Size: size, Stride: stride}, nil
}

// MustLayout is NewLayout that panics on error; intended for tests and
// constant configurations.
func MustLayout(size, stride int) Layout {
	l, err := NewLayout(size, stride)
	if err != nil {
		panic(err)
	}
	return l
}

// Translate maps a logical offset (0 <= off < Size) to its scattered
// physical address.
func (l Layout) Translate(off int) Addr {
	part := off / PartitionSize
	return l.Base + Addr(part*PartitionSeparation+off%PartitionSize)
}

// Pool returns all word-aligned physical addresses usable by the test
// generator: every multiple of Stride within the logical range, scattered
// through the partitions. The result is sorted and duplicate-free.
func (l Layout) Pool() []Addr { return l.AppendPool(make([]Addr, 0, l.Size/l.Stride)) }

// AppendPool appends the layout's Pool to dst and returns the extended
// slice; into storage of the pool's size it allocates nothing.
func (l Layout) AppendPool(dst []Addr) []Addr {
	start := len(dst)
	for i := 0; i < l.Size/l.Stride; i++ {
		dst = append(dst, l.Translate(i*l.Stride))
	}
	slices.Sort(dst[start:])
	return dst
}

// Lines returns the distinct cache-line addresses covered by the layout's
// pool, sorted.
func (l Layout) Lines() []Addr {
	seen := make(map[Addr]bool)
	var lines []Addr
	for _, a := range l.Pool() {
		la := a.LineAddr()
		if !seen[la] {
			seen[la] = true
			lines = append(lines, la)
		}
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	return lines
}
