package collective

import (
	"testing"

	"repro/internal/memmodel/exectest"
)

var sinkSig Sig

// BenchmarkSignature hashes one benchmark-sized execution (1 000
// operations on 8 threads over 512 addresses).
func BenchmarkSignature(b *testing.B) {
	x := exectest.SC(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkSig = Signature(x)
	}
}
