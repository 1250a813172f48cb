package service

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
)

// recordingSource is a Source that hands out nothing and records how a
// lease given straight to runLease was settled.
type recordingSource struct {
	mu        sync.Mutex
	renewErr  error
	completed []fleet.ShardResult
	failed    []string
}

func (r *recordingSource) Claim(context.Context, string) (*Lease, error) { return nil, nil }

func (r *recordingSource) Renew(context.Context, string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.renewErr
}

func (r *recordingSource) Complete(_ context.Context, _ string, sr fleet.ShardResult) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.completed = append(r.completed, sr)
	return nil
}

func (r *recordingSource) Fail(_ context.Context, _ string, reason string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed = append(r.failed, reason)
	return nil
}

// TestRunLeaseNeverCompletesAFailedShard: fleet.RunShard returns the
// partial results beside its error, and a worker must not mistake them
// for the shard — a lease whose run was cut off (here: the lease is
// lost at the first heartbeat) is settled by nobody, and one whose
// campaign cannot be built is failed, never completed.
func TestRunLeaseNeverCompletesAFailedShard(t *testing.T) {
	spec := testSpec(core.GenRandom, 2, 10_000_000, 5, "mesi-tso")
	whole := fleet.Range{Start: 0, End: spec.Items()}

	lost := &recordingSource{renewErr: ErrNoLease}
	runLease(context.Background(), lost, &Lease{ID: "l1", Spec: spec, Range: whole, TTLMillis: 30},
		WorkerOptions{FleetWorkers: 2})
	if len(lost.completed) != 0 || len(lost.failed) != 0 {
		t.Errorf("lost lease settled: %d completes, fails %q", len(lost.completed), lost.failed)
	}

	// Item 0 validates (Spec.Validate materializes it), so the bad
	// range is what RunShard refuses.
	bad := &recordingSource{}
	runLease(context.Background(), bad, &Lease{ID: "l2", Spec: spec, Range: fleet.Range{Start: 1, End: 9}, TTLMillis: int64(time.Minute / time.Millisecond)},
		WorkerOptions{})
	if len(bad.completed) != 0 || len(bad.failed) != 1 {
		t.Errorf("refused shard: %d completes, fails %q; want one Fail and no Complete", len(bad.completed), bad.failed)
	}
}
