package trace

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/collective"
	"repro/internal/memmodel"
	"repro/internal/memmodel/exectest"
)

// TestSignatureOncePerTrace: goroutines racing for one trace's signature
// sign it once and get what its execution signs as; only the computing
// call is handed the execution its sign built. A malformed trace whose
// sign fails remembers nothing, so every call signs it again and meets
// the same error; a malformed trace of the canonical shape is signed
// from its fields, once.
func TestSignatureOncePerTrace(t *testing.T) {
	good, err := FromExecution("good", exectest.SC(1))
	if err != nil {
		t.Fatal(err)
	}
	x, err := good.Execution()
	if err != nil {
		t.Fatal(err)
	}
	want := collective.Signature(x)
	bad := &Trace{Name: "bad", Threads: []Thread{{TID: 0, Ops: []Op{{Kind: OpRead, Addr: 0x100, Value: 7}}}}}
	_, wantErr := bad.Execution()
	if wantErr == nil {
		t.Fatal("a read of a value nobody wrote materialized")
	}
	// The same read, given the initial write as its source: canonical,
	// and still not an execution.
	badCanonical := &Trace{Name: "bad-canonical", Threads: bad.Threads, RF: []RFEdge{{Read: Ref{TID: 0}, Init: true}}}
	if _, err := badCanonical.Execution(); err == nil {
		t.Fatal("a read of 7 from the initial write materialized")
	}

	const goroutines = 8
	var calls [3]atomic.Int32
	var handed atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var m Materializer
			// Build the execution to sign it, as for a trace that is not
			// canonical.
			build := func(tr *Trace) (collective.Sig, *memmodel.Execution, error) {
				calls[0].Add(1)
				x, err := m.Execution(tr)
				if err != nil {
					return collective.Sig{}, nil, err
				}
				return collective.Signature(x), x, nil
			}
			sig, x, err := good.Signature(build)
			if err != nil || sig != want {
				t.Errorf("signature %s, %v; want %s", sig, err, want)
			}
			if x != nil {
				handed.Add(1)
			}
			if _, x, err := bad.Signature(func(tr *Trace) (collective.Sig, *memmodel.Execution, error) {
				calls[1].Add(1)
				return build(tr)
			}); x != nil || err == nil || err.Error() != wantErr.Error() {
				t.Errorf("malformed trace: %v, %v; want %v", x, err, wantErr)
			}
			if _, x, err := badCanonical.Signature(func(tr *Trace) (collective.Sig, *memmodel.Execution, error) {
				calls[2].Add(1)
				sig, ok := m.Sign(tr)
				if !ok {
					t.Error("a canonical trace fell back to materializing")
				}
				return sig, nil, nil
			}); x != nil || err != nil {
				t.Errorf("malformed canonical trace: %v, %v; want a signature", x, err)
			}
		}()
	}
	wg.Wait()
	if handed.Load() != 1 || calls[0].Load() != 1+goroutines || calls[1].Load() != goroutines || calls[2].Load() != 1 {
		t.Fatalf("%d builds, %d executions handed out, %d signings of the malformed trace, %d of the canonical one; want %d, 1, %d, 1",
			calls[0].Load(), handed.Load(), calls[1].Load(), calls[2].Load(), 1+goroutines, goroutines)
	}
}

// TestProvedValidKeepsTheStrongest: a trace recorded valid under some
// models, from racing goroutines in any order, answers valid for the
// strongest of them and every weaker model, and for no stronger one.
func TestProvedValidKeepsTheStrongest(t *testing.T) {
	models := len(memmodel.Names())
	tr := new(Trace)
	for m := 0; m < models; m++ {
		if tr.ValidUnder(m) {
			t.Fatalf("a fresh trace is valid under model %d", m)
		}
	}
	var wg sync.WaitGroup
	for _, m := range []int{3, 1, 2, 3, 1} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr.ProvedValid(m)
		}()
	}
	wg.Wait()
	for m := 0; m < models; m++ {
		if got := tr.ValidUnder(m); got != (m >= 1) {
			t.Errorf("after proofs under models 1–3: valid under %d = %v", m, got)
		}
	}
	tr.ProvedValid(0)
	tr.ProvedValid(2)
	if !tr.ValidUnder(0) {
		t.Error("a proof under model 0 was not kept")
	}
}
