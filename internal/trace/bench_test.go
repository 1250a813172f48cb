package trace

import (
	"bytes"
	"testing"

	"repro/internal/memmodel"
	"repro/internal/memmodel/exectest"
)

// benchTrace is one benchmark-sized execution (1 000 operations on 8
// threads over 512 addresses) as a canonical trace.
func benchTrace(b *testing.B) *Trace {
	tr, err := FromExecution("bench", exectest.SC(1))
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

var sinkExec *memmodel.Execution

// BenchmarkMaterialize materializes the trace into storage that has
// held it before — an oracle.Checker's steady state.
func BenchmarkMaterialize(b *testing.B) {
	tr := benchTrace(b)
	var m Materializer
	if _, err := m.Execution(tr); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, err := m.Execution(tr)
		if err != nil {
			b.Fatal(err)
		}
		sinkExec = x
	}
}

// BenchmarkDecodeText decodes the trace's canonical text encoding.
func BenchmarkDecodeText(b *testing.B) {
	var buf bytes.Buffer
	if err := WriteText(&buf, benchTrace(b)); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewDecoder(bytes.NewReader(buf.Bytes())).Next(); err != nil {
			b.Fatal(err)
		}
	}
}
