// Package exectest builds seeded candidate executions for the tests and
// benchmarks of the packages around memmodel, so the kernels on the
// execution identity path (signature, ref resolution, materialization,
// decode, warm verdict) are all measured on the same input.
package exectest

import (
	"math/rand"

	"repro/internal/memmodel"
	"repro/internal/memsys"
)

// The shape of the benchmark corpus's traces.
const (
	threads = 8
	ops     = 1000
	addrs   = 512
)

// SC returns a sequentially consistent execution the size of the
// benchmark corpus's — 1 000 operations on 8 threads over 512 word
// addresses — built with memmodel.Builder: one seeded interleaving
// against a flat memory, every write storing a value of its own, reads
// observing the latest write (value resolution and registration order
// are then the conflict orders), with atomic RMW pairs and fences of
// every flavour mixed in. It is valid under every bundled model.
func SC(seed int64) *memmodel.Execution {
	rng := rand.New(rand.NewSource(seed))
	b := memmodel.NewBuilder()
	mem := make([]uint64, addrs)
	for i := 0; i < ops; i++ {
		tid := rng.Intn(threads)
		slot := rng.Intn(addrs)
		addr := memsys.Addr(0x1000 + 16*slot)
		val := uint64(i + 1)
		switch r := rng.Intn(20); {
		case r < 9:
			b.Read(tid, addr, mem[slot])
		case r < 17:
			b.Write(tid, addr, val)
			mem[slot] = val
		case r < 19:
			b.RMW(tid, addr, mem[slot], val)
			mem[slot] = val
		default:
			b.Fence(tid, memmodel.FenceKind(rng.Intn(int(memmodel.NumFenceKinds))))
		}
	}
	return b.MustBuild()
}
