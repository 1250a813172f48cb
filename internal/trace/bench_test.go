package trace

import (
	"bytes"
	"io"
	"slices"
	"testing"

	"repro/internal/collective"
	"repro/internal/memmodel"
	"repro/internal/memmodel/exectest"
)

// benchTrace is one benchmark-sized execution (1 000 operations on 8
// threads over 512 addresses) as a canonical trace.
func benchTrace(tb testing.TB) *Trace {
	tr, err := FromExecution("bench", exectest.SC(1))
	if err != nil {
		tb.Fatal(err)
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

var sinkSig collective.Sig

// BenchmarkSignTrace signs the trace from its fields in storage that
// has signed it before — what a warm store hit pays for its key.
func BenchmarkSignTrace(b *testing.B) {
	tr := benchTrace(b)
	var m Materializer
	if _, ok := m.Sign(tr); !ok {
		b.Fatal("the trace fell back to materializing")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkSig, _ = m.Sign(tr)
	}
}

// BenchmarkSignExecution is BenchmarkSignTrace's twin on the execution
// walker: collective.Signature of the trace's materialized execution.
func BenchmarkSignExecution(b *testing.B) {
	x, err := benchTrace(b).Execution()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkSig = collective.Signature(x)
	}
}

// codecTrace is benchTrace spelled as the benchmark's oracle corpus
// spells its traces: 10-character hex addresses, and written values of
// 10 and 11 digits, whose bits above 32 stand where the corpus keeps a
// writer's id. The codec benchmarks time it, so a decode rate reads as
// it does on that corpus.
func codecTrace(tb testing.TB) *Trace {
	tr := benchTrace(tb)
	value := func(v uint64) uint64 {
		if v == 0 {
			return 0
		}
		return (v%3+1)<<32 | v
	}
	for _, th := range tr.Threads {
		for i := range th.Ops {
			op := &th.Ops[i]
			if op.Kind != OpFence {
				op.Addr |= 0x10000000
				op.Value, op.Value2 = value(op.Value), value(op.Value2)
			}
		}
	}
	for i := range tr.CO {
		tr.CO[i].Addr |= 0x10000000
	}
	return tr
}

// benchStream is the length of the streams the codec benchmarks time:
// long enough that a decoder's set-up and its first, growing trace are a
// small share of the per-trace figure.
const benchStream = 16

// BenchmarkDecodeText decodes codecTrace's canonical text encoding in
// steady state: one decoder per 16-trace stream, timed per trace.
func BenchmarkDecodeText(b *testing.B) {
	tr := codecTrace(b)
	var buf bytes.Buffer
	if err := WriteText(&buf, slices.Repeat([]*Trace{tr}, benchStream)...); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len() / benchStream))
	b.ReportAllocs()
	b.ResetTimer()
	var d *Decoder
	for i := 0; i < b.N; i++ {
		if i%benchStream == 0 {
			d = NewDecoder(bytes.NewReader(buf.Bytes()))
		}
		if _, err := d.Next(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeText writes 16-trace streams of codecTrace in text,
// timed per trace.
func BenchmarkEncodeText(b *testing.B) {
	traces := slices.Repeat([]*Trace{codecTrace(b)}, benchStream)
	var buf bytes.Buffer
	if err := WriteText(&buf, traces...); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len() / benchStream))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += benchStream {
		if err := WriteText(io.Discard, traces...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeBinary is BenchmarkDecodeText's twin on the trace's
// binary encoding.
func BenchmarkDecodeBinary(b *testing.B) {
	tr := codecTrace(b)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, slices.Repeat([]*Trace{tr}, benchStream)...); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len() / benchStream))
	b.ReportAllocs()
	b.ResetTimer()
	var d *BinaryDecoder
	for i := 0; i < b.N; i++ {
		if i%benchStream == 0 {
			d = NewBinaryDecoder(bytes.NewReader(buf.Bytes()))
		}
		if _, err := d.Next(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeBinary is BenchmarkEncodeText's twin on the binary
// encoding.
func BenchmarkEncodeBinary(b *testing.B) {
	traces := slices.Repeat([]*Trace{codecTrace(b)}, benchStream)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, traces...); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len() / benchStream))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += benchStream {
		if err := WriteBinary(io.Discard, traces...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceReaderText reads a stream of 160 traces spelled as
// codecTrace is, about the oracle corpus's 5.4 MB, through a TextReader,
// which decodes on every core, and reports the stream's MB/s.
func BenchmarkTraceReaderText(b *testing.B) {
	var buf bytes.Buffer
	if err := WriteText(&buf, slices.Repeat([]*Trace{codecTrace(b)}, 160)...); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewTextReader(bytes.NewReader(buf.Bytes()))
		for {
			_, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}
