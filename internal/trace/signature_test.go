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
// materialize it once, get the signature of the execution Execution
// builds, and only the computing call is handed that execution; a
// malformed trace remembers nothing, so every call materializes and
// meets the same error.
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

	const goroutines = 8
	var built, rebuilt, handed atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var m Materializer
			materialize := func(tr *Trace) (*memmodel.Execution, error) {
				if tr == good {
					built.Add(1)
				} else {
					rebuilt.Add(1)
				}
				return m.Execution(tr)
			}
			sig, x, err := good.Signature(materialize)
			if err != nil || sig != want {
				t.Errorf("signature %s, %v; want %s", sig, err, want)
			}
			if x != nil {
				handed.Add(1)
			}
			if _, x, err := bad.Signature(materialize); x != nil || err == nil || err.Error() != wantErr.Error() {
				t.Errorf("malformed trace: %v, %v; want %v", x, err, wantErr)
			}
		}()
	}
	wg.Wait()
	if built.Load() != 1 || handed.Load() != 1 || rebuilt.Load() != goroutines {
		t.Fatalf("good trace: %d materializations, %d executions handed out; malformed: %d materializations; want 1, 1, %d",
			built.Load(), handed.Load(), rebuilt.Load(), goroutines)
	}
}
