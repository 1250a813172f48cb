package oracle

import (
	"fmt"
	"io"
	"strconv"
	"sync"
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

// countingStore is a VerdictStore that counts its reads and writes per
// key.
type countingStore struct {
	VerdictStore
	mu         sync.Mutex
	gets, puts map[Sig]int
}

func (s *countingStore) Get(key Sig) (collective.Verdict, bool) {
	s.mu.Lock()
	s.gets[key]++
	s.mu.Unlock()
	return s.VerdictStore.Get(key)
}

func (s *countingStore) Put(key Sig, v collective.Verdict) {
	s.mu.Lock()
	s.puts[key]++
	s.mu.Unlock()
	s.VerdictStore.Put(key, v)
}

// sliceReader hands out unsigned copies of traces, in order.
type sliceReader struct {
	traces []*Trace
	next   int
}

func (r *sliceReader) Next() (*Trace, error) {
	if r.next == len(r.traces) {
		return nil, io.EOF
	}
	r.next++
	return clone(r.traces[r.next-1]), nil
}

// TestCheckStreamReadsTheStoreOncePerKey: a cold pass of the generated
// corpus through CheckStream, then a warm pass over a new memo, at 1 and
// 2 workers, read the store at most once per (trace, model) key. The
// cold pass writes each key it decides once; the warm pass answers every
// key from disk and writes nothing.
func TestCheckStreamReadsTheStoreOncePerKey(t *testing.T) {
	traces := generatedTraces(t)
	models := Models()
	for _, workers := range []int{1, 2} {
		st, err := OpenStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		for _, pass := range []string{"cold", "warm"} {
			cs := &countingStore{VerdictStore: st, gets: map[Sig]int{}, puts: map[Sig]int{}}
			keys := map[Sig]bool{}
			stats, err := CheckStream(&sliceReader{traces: traces}, models, workers, Options{Store: cs},
				func(i int, verdicts []Verdict, err error) error {
					for mi, v := range verdicts {
						hi, errHi := strconv.ParseUint(v.Sig[:16], 16, 64)
						lo, errLo := strconv.ParseUint(v.Sig[16:], 16, 64)
						arch, errArch := ModelByName(models[mi])
						if errHi != nil || errLo != nil || errArch != nil {
							t.Fatalf("%s: verdict %+v", traces[i].Name, v)
						}
						keys[ScopedKey("", Sig{Hi: hi, Lo: lo}, arch)] = true
					}
					return nil
				})
			if err != nil {
				t.Fatal(err)
			}
			where := fmt.Sprintf("%d workers, %s pass", workers, pass)
			for key, n := range cs.gets {
				if n > 1 {
					t.Errorf("%s: key %s read %d times, want at most once", where, key, n)
				}
			}
			for key := range keys {
				if cs.gets[key] != 1 {
					t.Errorf("%s: key %s read %d times, want once", where, key, cs.gets[key])
				}
			}
			wantPuts := len(keys)
			if pass == "warm" {
				wantPuts = 0
				if stats.Dedupe.Durable != uint64(len(keys)) {
					t.Errorf("%s: %s; want every one of %d keys answered from disk", where, stats.Dedupe, len(keys))
				}
			}
			for key, n := range cs.puts {
				if n != 1 || !keys[key] {
					t.Errorf("%s: key %s written %d times (a verdict's key: %v), want once, for a verdict", where, key, n, keys[key])
				}
			}
			if len(cs.puts) != wantPuts {
				t.Errorf("%s: %d keys written, want %d", where, len(cs.puts), wantPuts)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
