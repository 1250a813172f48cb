package litmus

import (
	"reflect"
	"testing"

	"repro/internal/memmodel"
	"repro/internal/memmodel/fastpath"
)

// TestFastpathMatchesExactOnCorpus is the checker fast path's
// known-answer equivalence sweep: every corpus shape and every
// generated conformance test, under every model, must get the exact
// same Result from the fast path as from the full axiomatic checker —
// and on the models the fast path supports (SC/TSO/PSO) the verdict
// must be conclusive, so the litmus library's entire outcome table
// doubles as the fast path's ground truth.
func TestFastpathMatchesExactOnCorpus(t *testing.T) {
	var tests []*Test
	for _, k := range Corpus() {
		tst, ok := k.Materialize()
		if !ok {
			t.Fatalf("%s did not materialize", k.Name)
		}
		tests = append(tests, tst)
	}
	for _, model := range memmodel.Names() {
		arch, err := memmodel.ByName(model)
		if err != nil {
			t.Fatal(err)
		}
		tests = append(tests, Generate(arch, 4, 20)...)
	}

	fc := fastpath.New() // shared across all checks: exercises scratch reuse
	fast := memmodel.NewChecker(memmodel.WithFastDecider(fc))
	for _, model := range memmodel.Names() {
		arch, err := memmodel.ByName(model)
		if err != nil {
			t.Fatal(err)
		}
		supported := fastpath.Supported(arch)
		for _, tst := range tests {
			x, ok := buildExecution(tst)
			if !ok {
				continue
			}
			exact := memmodel.NewChecker().Check(x, arch)
			res, v := fast.Check(x, arch), fc.Decide(x, arch)
			if !reflect.DeepEqual(res, exact) {
				t.Fatalf("%s under %s: fastpath Result diverges\n  fast  %+v\n  exact %+v",
					tst.Name, model, res, exact)
			}
			if supported && v.Outcome == fastpath.OutcomeInconclusive {
				t.Errorf("%s under %s: inconclusive on a supported model", tst.Name, model)
			}
			if !supported && v.Outcome != fastpath.OutcomeInconclusive {
				t.Errorf("%s under %s: verdict %v on an unsupported model", tst.Name, model, v.Outcome)
			}
			switch v.Outcome {
			case fastpath.OutcomeValid:
				if !exact.Valid {
					t.Errorf("%s under %s: fast-valid but exact says %v", tst.Name, model, exact.Kind)
				}
			case fastpath.OutcomeInvalid:
				if exact.Valid {
					t.Errorf("%s under %s: fast-invalid but exact says valid", tst.Name, model)
				} else if v.Kind != exact.Kind {
					t.Errorf("%s under %s: fast kind %v, exact kind %v", tst.Name, model, v.Kind, exact.Kind)
				}
			}
		}
	}
}
