package oracle

import (
	"strconv"
	"testing"

	"repro/internal/collective"
	"repro/internal/memmodel"
)

// TestGoldenSignaturesAnswerFromStore fills a store from the generated
// golden alone — each verdict keyed under the signature the golden
// *records*, as an earlier build wrote it, never one computed here — and
// decides the golden's traces against it. Every first sight must be
// answered from disk, so a signature that moved by one bit shows as a
// missing durable hit; and the time must be booked where it went: a
// valid durable hit ran no decision procedure and is memo time, an
// invalid one re-derives its witness and is a check.
func TestGoldenSignaturesAnswerFromStore(t *testing.T) {
	traces := generatedTraces(t)
	golden := loadGolden(t)
	if len(golden) != len(traces) {
		t.Fatalf("generated %d traces, golden holds %d", len(traces), len(golden))
	}
	kinds := map[string]memmodel.ViolationKind{}
	for k := memmodel.ViolationNone; k <= memmodel.ViolationStructural; k++ {
		kinds[k.String()] = k
	}

	for _, model := range Models() {
		arch, err := ModelByName(model)
		if err != nil {
			t.Fatal(err)
		}
		st, err := OpenStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		var valid, invalid uint64
		for _, g := range golden {
			if g.Err != "" {
				continue
			}
			if len(g.Sig) != 32 {
				t.Fatalf("%s: golden signature %q is not 32 hex digits", g.Name, g.Sig)
			}
			hi, errHi := strconv.ParseUint(g.Sig[:16], 16, 64)
			lo, errLo := strconv.ParseUint(g.Sig[16:], 16, 64)
			if errHi != nil || errLo != nil {
				t.Fatalf("%s: golden signature %q is not 32 hex digits", g.Name, g.Sig)
			}
			res := g.Results[model]
			if res.Valid {
				valid++
			} else {
				invalid++
			}
			st.Put(ScopedKey("", Sig{Hi: hi, Lo: lo}, arch), collective.Verdict{Valid: res.Valid, Kind: kinds[res.Kind]})
		}
		if valid == 0 || invalid == 0 {
			t.Fatalf("%s: golden holds %d valid and %d invalid verdicts, want both", model, valid, invalid)
		}

		// Valid traces first, on a Checker of their own, then the invalid.
		for _, wantValid := range []bool{true, false} {
			c, err := NewChecker(model, Options{Store: st})
			if err != nil {
				t.Fatal(err)
			}
			for i, tr := range traces {
				res := golden[i].Results[model]
				if golden[i].Err != "" || res.Valid != wantValid {
					continue
				}
				v, err := c.CheckTrace(tr, i)
				if err != nil {
					t.Fatal(err)
				}
				if v.Sig != golden[i].Sig || v.Valid != res.Valid || v.Kind != res.Kind || v.Detail != res.Detail {
					t.Errorf("%s under %s from the store: %+v, golden %+v (sig %s)", tr.Name, model, v, res, golden[i].Sig)
				}
			}
			d, p := c.Dedupe(), c.Phases()
			if d.Durable != d.Checks || d.Hits != 0 {
				t.Errorf("%s, valid=%v: %d of %d checks answered from disk, %d from RAM; want every one from disk", model, wantValid, d.Durable, d.Checks, d.Hits)
			}
			if wantValid {
				if d.Checks != valid || p.Memo.Count != valid || p.Check.Count != 0 || p.FastCheck.Count != 0 {
					t.Errorf("%s: %d valid durable hits booked as memo %d, check %d, fastcheck %d; want all memo", model, d.Checks, p.Memo.Count, p.Check.Count, p.FastCheck.Count)
				}
			} else if d.Checks != invalid || p.Check.Count != invalid || p.Memo.Count != 0 {
				t.Errorf("%s: %d invalid durable hits booked as memo %d, check %d; want all check (the witness is re-derived)", model, d.Checks, p.Memo.Count, p.Check.Count)
			}
		}
	}
}

// TestExecutionSignedStoreAnswersTraces: a store filled with exact
// verdicts keyed by the execution walker's signatures answers CheckTrace
// on the same traces, whose keys are signed from the traces' fields:
// every check a durable hit, every verdict the one stored.
func TestExecutionSignedStoreAnswersTraces(t *testing.T) {
	traces := append(generatedTraces(t), largeTraces(t, 2)...)
	classics, err := LitmusCorpus()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range classics {
		traces = append(traces, e.Trace)
	}
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	models := Models()
	var (
		kept []*Trace
		want [][]Result
	)
	exact := memmodel.NewChecker()
	for _, tr := range traces {
		x, err := tr.Execution()
		if err != nil {
			continue
		}
		kept = append(kept, clone(tr))
		row := make([]Result, len(models))
		for mi, model := range models {
			arch, err := ModelByName(model)
			if err != nil {
				t.Fatal(err)
			}
			row[mi] = exact.Check(x, arch)
			st.Put(ScopedKey("", Signature(x), arch), collective.VerdictOf(row[mi]))
		}
		want = append(want, row)
	}

	memo := NewMemo()
	for mi, c := range newCheckers(t, 1, Options{Memo: memo, Store: st})[0] {
		for i, tr := range kept {
			v, err := c.CheckTrace(tr, i)
			if err != nil {
				t.Fatal(err)
			}
			w := want[i][mi]
			if v.Valid != w.Valid || !w.Valid && (v.Kind != w.Kind.String() || v.Detail != w.Detail) {
				t.Errorf("%s under %s: %+v, stored from the exact check %+v", tr.Name, models[mi], v, w)
			}
		}
	}
	if d := memo.Stats(); d.Checks != uint64(len(kept)*len(models)) || d.Durable != d.Checks {
		t.Errorf("%d traces × %d models: %s; want every check a durable hit", len(kept), len(models), d)
	}
}
