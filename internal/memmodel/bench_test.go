package memmodel_test

import (
	"testing"

	"repro/internal/memmodel"
	"repro/internal/memmodel/exectest"
	"repro/internal/relation"
)

var sinkID relation.EventID

// BenchmarkBuilderLookup resolves what a canonical trace of one
// benchmark-sized execution references: every read and the write it
// read from, then every write (its place in a coherence order), over
// the keys a materializer would have added thread by thread.
func BenchmarkBuilderLookup(b *testing.B) {
	x := exectest.SC(1)
	bld := memmodel.NewBuilder()
	var refs []memmodel.Key
	for _, tid := range x.Threads() {
		for _, id := range x.ThreadEvents(tid) {
			switch e := x.Event(id); {
			case e.IsRead():
				bld.ReadKeyed(e.Key, e.Addr, e.Value, e.Atomic)
				refs = append(refs, e.Key)
				if w, _ := x.RF(id); !x.Event(w).IsInit() {
					refs = append(refs, x.Event(w).Key)
				}
			case e.IsWrite():
				bld.WriteKeyed(e.Key, e.Addr, e.Value, e.Atomic)
				refs = append(refs, e.Key)
			default:
				bld.FenceKeyed(e.Key, e.Fence)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range refs {
			id, ok := bld.Lookup(k)
			if !ok {
				b.Fatalf("key %v not found", k)
			}
			sinkID = id
		}
	}
}
