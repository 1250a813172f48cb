package oracle

import "testing"

// phaseTotals merges the phase breakdown of every Checker.
func phaseTotals(checkers []*Checker) PhaseSnapshot {
	var p PhaseSnapshot
	for _, c := range checkers {
		p = p.Merge(c.Phases())
	}
	return p
}

// TestChainMaterializesOnce: one worker deciding a trace's models
// strongest first over an empty store materializes a trace valid under
// SC once — to sign it and decide it under SC — and answers TSO, PSO and
// RMO from the chain: one decision and three memo spans, while the memo
// and the store still see all four checks.
func TestChainMaterializesOnce(t *testing.T) {
	golden := loadGolden(t)
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	models := Models()
	n := 0
	for i, tr := range generatedTraces(t) {
		if golden[i].Err != "" || !golden[i].Results[models[0]].Valid {
			continue
		}
		n++
		memo := NewMemo()
		checkers := newCheckers(t, 1, Options{Memo: memo, Store: st})[0]
		stored := st.Len()
		for mi, c := range checkers {
			if v, err := c.CheckTrace(tr, i); err != nil || !v.Valid {
				t.Fatalf("%s under %s: %+v, %v; the golden says valid", tr.Name, models[mi], v, err)
			}
		}
		p := phaseTotals(checkers)
		if p.Decode.Count != 1 || p.Check.Count+p.FastCheck.Count != 1 || p.Memo.Count != uint64(len(models)-1) {
			t.Errorf("%s: %d materializations, %d decisions, %d memo spans; want 1, 1, %d",
				tr.Name, p.Decode.Count, p.Check.Count+p.FastCheck.Count, p.Memo.Count, len(models)-1)
		}
		if d := memo.Stats(); d.Checks != uint64(len(models)) || d.Unique != uint64(len(models)) || st.Len()-stored != len(models) {
			t.Errorf("%s: %s, %d records stored; want every model checked and stored", tr.Name, d, st.Len()-stored)
		}
	}
	if n < 10 {
		t.Fatalf("%d generated traces valid under SC, want at least 10", n)
	}
}

// TestChainDecidesAtTheStrongestValidModel: SB's outcome is forbidden
// under SC and allowed under TSO. Checked strongest first, SC and TSO each
// decide it — TSO materializing it again, as SC signed it — and PSO and
// RMO answer valid from the chain without materializing it or consulting
// the fast pass.
func TestChainDecidesAtTheStrongestValidModel(t *testing.T) {
	classics, err := LitmusCorpus()
	if err != nil {
		t.Fatal(err)
	}
	var sb *Trace
	for _, e := range classics {
		if e.Trace.Name == "SB" {
			if !e.ForbiddenUnder["SC"] || e.ForbiddenUnder["TSO"] {
				t.Fatalf("SB's known answers changed: %v", e.ForbiddenUnder)
			}
			sb = e.Trace
		}
	}
	if sb == nil {
		t.Fatal("no SB in the litmus corpus")
	}
	models := Models()
	for mi, c := range newCheckers(t, 1, Options{})[0] {
		v, err := c.CheckTrace(sb, 0)
		if err != nil {
			t.Fatal(err)
		}
		p := c.Phases()
		decisions := p.Check.Count + p.FastCheck.Count
		switch model := models[mi]; model {
		case "SC", "TSO":
			if v.Valid != (model == "TSO") || p.Decode.Count != 1 || decisions != 1 || p.Memo.Count != 0 {
				t.Errorf("SB under %s: valid=%v, %d materializations, %d decisions, %d memo spans; want valid=%v decided on 1 materialization",
					model, v.Valid, p.Decode.Count, decisions, p.Memo.Count, model == "TSO")
			}
		default:
			if !v.Valid || p.Decode.Count != 0 || decisions != 0 || p.Memo.Count != 1 || c.Fastpath().Checks != 0 {
				t.Errorf("SB under %s: valid=%v, %d materializations, %d decisions, %d memo spans, %d fast-pass checks; want valid from the chain",
					model, v.Valid, p.Decode.Count, decisions, p.Memo.Count, c.Fastpath().Checks)
			}
		}
	}
	if sb.ValidUnder(0) || !sb.ValidUnder(1) {
		t.Errorf("SB recorded valid under SC=%v, TSO=%v; want only from TSO down", sb.ValidUnder(0), sb.ValidUnder(1))
	}
}

// TestChainStoreHitPublishesNothing: a verdict answered from the durable
// store is trusted for its own key only, so a valid store hit under SC
// records nothing on the trace, and a TSO Checker without the store
// decides the trace itself.
func TestChainStoreHitPublishesNothing(t *testing.T) {
	golden := loadGolden(t)
	traces := generatedTraces(t)
	i := 0
	for golden[i].Err != "" || !golden[i].Results["SC"].Valid {
		i++
	}
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, c := range newCheckers(t, 1, Options{Store: st})[0] {
		if _, err := c.CheckTrace(clone(traces[i]), i); err != nil {
			t.Fatal(err)
		}
	}

	tr := clone(traces[i])
	sc, err := NewChecker("SC", Options{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if v, err := sc.CheckTrace(tr, i); err != nil || !v.Valid || sc.Dedupe().Durable != 1 {
		t.Fatalf("%s under SC: %+v, %v, %s; want a valid durable hit", tr.Name, v, err, sc.Dedupe())
	}
	if tr.ValidUnder(len(Models()) - 1) {
		t.Fatalf("%s: a durable hit recorded the trace valid", tr.Name)
	}
	tso, err := NewChecker("TSO", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v, err := tso.CheckTrace(tr, i); err != nil || !v.Valid {
		t.Fatalf("%s under TSO: %+v, %v", tr.Name, v, err)
	}
	if p := tso.Phases(); p.Check.Count+p.FastCheck.Count != 1 {
		t.Errorf("%s under TSO after an SC store hit: %d decisions, want 1", tr.Name, p.Check.Count+p.FastCheck.Count)
	}
}

// TestVerdictsMonotoneAlongModels: what the chain relies on, over the
// recorded answers — no generated golden trace and no litmus classic is
// valid under a model and invalid under a weaker one.
func TestVerdictsMonotoneAlongModels(t *testing.T) {
	models := Models()
	separated := 0
	for _, g := range loadGolden(t) {
		if g.Err != "" {
			continue
		}
		for k := 0; k+1 < len(models); k++ {
			strong, weak := g.Results[models[k]].Valid, g.Results[models[k+1]].Valid
			if strong && !weak {
				t.Errorf("golden %s: valid under %s, invalid under %s", g.Name, models[k], models[k+1])
			}
			if weak && !strong {
				separated++
			}
		}
	}
	classics, err := LitmusCorpus()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range classics {
		for k := 0; k+1 < len(models); k++ {
			strong, weak := !e.ForbiddenUnder[models[k]], !e.ForbiddenUnder[models[k+1]]
			if strong && !weak {
				t.Errorf("litmus %s: allowed under %s, forbidden under %s", e.Trace.Name, models[k], models[k+1])
			}
			if weak && !strong {
				separated++
			}
		}
	}
	if separated == 0 {
		t.Error("no recorded answer separates two adjacent models")
	}
}
