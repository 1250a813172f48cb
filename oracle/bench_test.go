package oracle

import (
	"testing"

	"repro/internal/memmodel/exectest"
)

// BenchmarkCheckTraceWarm is what the oracle pays per trace once every
// verdict is known: one benchmark-sized trace, new to the Checkers,
// decided under the four models by four Checkers over one memo that has
// answered it before — one materialization and signature, then a memo
// hit per model.
func BenchmarkCheckTraceWarm(b *testing.B) {
	tr, err := TraceFromExecution("bench", exectest.SC(1))
	if err != nil {
		b.Fatal(err)
	}
	memo := NewMemo()
	var checkers []*Checker
	for _, m := range Models() {
		c, err := NewChecker(m, Options{Memo: memo})
		if err != nil {
			b.Fatal(err)
		}
		if v, err := c.CheckTrace(tr, 0); err != nil || !v.Valid {
			b.Fatalf("%s: %+v, %v", m, v, err)
		}
		checkers = append(checkers, c)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fresh := clone(tr)
		for _, c := range checkers {
			if _, err := c.CheckTrace(fresh, i); err != nil {
				b.Fatal(err)
			}
		}
	}
}
