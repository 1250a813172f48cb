package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/fleet"
	"repro/internal/gp"
	"repro/internal/host"
	"repro/internal/memsys"
	"repro/internal/scenario"
	"repro/internal/testgen"
)

// testSpec is a CI-scale spec over the named scenarios.
func testSpec(gen core.GeneratorKind, samples, budget int, seed int64, names ...string) core.Spec {
	scens := make([]scenario.Scenario, 0, len(names))
	for _, n := range names {
		s, err := scenario.ByName(n)
		if err != nil {
			panic(err)
		}
		scens = append(scens, s)
	}
	cfg := core.DefaultConfig()
	cfg.Generator = gen
	cfg.Test = testgen.Config{
		Size:    96,
		Threads: 8,
		Layout:  memsys.MustLayout(1024, 16),
	}
	cfg.GP = gp.PaperParams()
	cfg.GP.PopulationSize = 12
	cfg.Coverage = coverage.DefaultParams()
	cfg.Host = host.Options{Iterations: 3, Barrier: host.HostBarrier, MaxTicksPerIteration: 30_000_000}
	cfg.MaxTestRuns = budget
	return core.NewSpec(cfg, scens, samples, seed)
}

// referenceBytes is the single-process canonical output the service
// must reproduce at every topology.
func referenceBytes(t *testing.T, spec core.Spec) []byte {
	t.Helper()
	ref, err := fleet.LocalMerged(context.Background(), spec, fleet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := ref.CanonicalBytes()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// fakeClock is an injectable Config.Now.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)}
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.now = f.now.Add(d)
}

// waitDone polls the in-process service until the campaign terminates.
func waitDone(t *testing.T, s *Service, id string) Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := s.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == StateDone || st.State == StateFailed {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s stuck in state %s (%d/%d items)", id, st.State, st.ItemsDone, st.Items)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// fillQueue submits campaigns from fresh tenants until, with the have
// campaigns already pending, maxActive run and the queue holds
// maxQueued. It spreads them so that no tenant budget binds, and
// returns the IDs in admission order.
func fillQueue(t *testing.T, have int, submit func(tenant string) (string, error)) []string {
	t.Helper()
	var ids []string
	for i := 0; i < maxActive+maxQueued-have; i++ {
		id, err := submit(fmt.Sprintf("fill-%d", i/tenantMaxPending))
		if err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
		ids = append(ids, id)
	}
	return ids
}

// failCampaign fails the first running campaign's first pending shard
// maxAttempts times, which fails the campaign without simulating it.
func failCampaign(t *testing.T, s *Service) {
	t.Helper()
	for i := 0; i < maxAttempts; i++ {
		l, err := s.Claim("w")
		if err != nil || l == nil {
			t.Fatalf("attempt %d: no lease (%v)", i, err)
		}
		if err := s.Fail(l.ID, "synthetic crash"); err != nil {
			t.Fatal(err)
		}
	}
}

// TestServiceAdmission: size cap, per-tenant budget, queue depth and
// FIFO promotion at the service's real limits, plus budget and queue
// release when a campaign ends.
func TestServiceAdmission(t *testing.T) {
	s, err := New(Config{ShardSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	big := testSpec(core.GenRandom, maxItems+1, 2, 5, "mesi-tso")
	if _, err := s.Submit("a", big); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized campaign: got %v, want ErrTooLarge", err)
	}

	small := testSpec(core.GenRandom, 1, 2, 5, "mesi-tso")
	var a []string
	for i := 0; i < tenantMaxPending; i++ {
		id, err := s.Submit("a", small)
		if err != nil {
			t.Fatal(err)
		}
		a = append(a, id)
	}
	if _, err := s.Submit("a", small); !errors.Is(err, ErrTenantBudget) {
		t.Fatalf("tenant over budget: got %v, want ErrTenantBudget", err)
	}
	// The first maxActive run; everything after them queues until the
	// queue is full.
	fillQueue(t, len(a), func(tenant string) (string, error) { return s.Submit(tenant, small) })
	if _, err := s.Submit("c", small); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("queue full: got %v, want ErrQueueFull", err)
	}
	for i, id := range a {
		want := StateRunning
		if i >= maxActive {
			want = StateQueued
		}
		if st, _ := s.Get(id); st.State != want {
			t.Fatalf("a[%d] state = %s, want %s", i, st.State, want)
		}
	}

	// Ending the oldest running campaign promotes the oldest queued one
	// (FIFO), and frees its tenant's budget and a queue slot — whether it
	// completes or fails.
	ended := func(i int, want CampaignState) {
		t.Helper()
		if st, _ := s.Get(a[i]); st.State != want {
			t.Fatalf("a[%d] state = %s, want %s", i, st.State, want)
		}
		if st, _ := s.Get(a[maxActive+i]); st.State != StateRunning {
			t.Fatalf("a[%d] state = %s, want running (FIFO promotion)", maxActive+i, st.State)
		}
		if st, _ := s.Get(a[maxActive+i+1]); st.State != StateQueued {
			t.Fatalf("a[%d] state = %s, want queued", maxActive+i+1, st.State)
		}
		if _, err := s.Submit("a", small); err != nil {
			t.Fatalf("budget or queue slot not released after a[%d] ended %s: %v", i, want, err)
		}
	}
	// a[0]'s single shard is the first pending one.
	l, err := s.Claim("w")
	if err != nil || l == nil || l.Campaign != a[0] {
		t.Fatalf("claim: lease %+v, err %v, want a[0]'s shard", l, err)
	}
	sr, err := fleet.RunShard(context.Background(), l.Spec, l.Range, fleet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Complete(l.ID, sr); err != nil {
		t.Fatal(err)
	}
	ended(0, StateDone)
	failCampaign(t, s)
	ended(1, StateFailed)
}

// TestServiceKillAndResume is the worker-death drill: a worker claims a
// lease and dies without completing it; the lease expires, the range is
// re-issued, and the final merged bytes are identical to the
// single-process reference — the re-run is invisible in the output.
func TestServiceKillAndResume(t *testing.T) {
	clk := newFakeClock()
	s, err := New(Config{ShardSize: 2, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(core.GenRandom, 2, 4, 23, "mesi-tso", "mesi-pso") // 4 items, 2 shards
	want := referenceBytes(t, spec)

	id, err := s.Submit("", spec)
	if err != nil {
		t.Fatal(err)
	}

	// The doomed worker claims the first shard and is never heard from
	// again.
	doomed, err := s.Claim("doomed")
	if err != nil || doomed == nil {
		t.Fatalf("claim failed: lease %v, err %v", doomed, err)
	}

	// Nothing expires before the TTL: the other shard is the only one
	// left to claim, and a healthy worker finishes it.
	other, err := s.Claim("healthy")
	if err != nil || other == nil || other.Range == doomed.Range {
		t.Fatalf("claim before the TTL: lease %v, err %v, want the other shard", other, err)
	}
	out, err := fleet.RunShard(context.Background(), spec, other.Range, fleet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Complete(other.ID, out); err != nil {
		t.Fatal(err)
	}
	if l, err := s.Claim("healthy"); err != nil || l != nil {
		t.Fatalf("premature expiry: lease %v, err %v", l, err)
	}
	clk.Advance(leaseTTL + time.Second)

	// The dead worker's range must be claimable again, by someone else.
	release, err := s.Claim("healthy")
	if err != nil || release == nil {
		t.Fatal("expired range was not re-issued")
	}
	if release.Range != doomed.Range {
		t.Fatalf("re-issued range %s, want the dead worker's %s", release.Range, doomed.Range)
	}

	// A zombie completion against the lost lease is rejected and
	// discarded.
	sr, err := fleet.RunShard(context.Background(), spec, doomed.Range, fleet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Complete(doomed.ID, sr); !errors.Is(err, ErrNoLease) {
		t.Fatalf("zombie completion: got %v, want ErrNoLease", err)
	}

	// The healthy worker finishes the re-issued shard.
	if err := s.Complete(release.ID, sr); err != nil {
		t.Fatal(err)
	}

	st := waitDone(t, s, id)
	if st.State != StateDone {
		t.Fatalf("campaign failed: %s", st.Err)
	}
	got, err := s.ResultBytes(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("kill-and-resume changed the merged output:\n  want %s\n  got  %s", want, got)
	}
}

// TestServiceCompleteValidation: a result that does not match its lease
// range is rejected and the shard goes back to pending.
func TestServiceCompleteValidation(t *testing.T) {
	s, err := New(Config{ShardSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(core.GenRandom, 2, 2, 7, "mesi-tso")
	if _, err := s.Submit("", spec); err != nil {
		t.Fatal(err)
	}
	l, err := s.Claim("w")
	if err != nil || l == nil {
		t.Fatal("no lease")
	}
	bad := fleet.ShardResult{Range: fleet.Range{Start: 0, End: 1}, Results: make([]core.Result, 1)}
	if err := s.Complete(l.ID, bad); err == nil {
		t.Fatal("mismatched shard result accepted")
	}
	// The range must be claimable again.
	l2, err := s.Claim("w")
	if err != nil || l2 == nil || l2.Range != l.Range {
		t.Fatalf("range not re-issued after bad completion: %v, %v", l2, err)
	}
}

// TestServiceFailMaxAttempts: a shard that keeps failing takes its
// campaign down once maxAttempts is exhausted, and not before.
func TestServiceFailMaxAttempts(t *testing.T) {
	s, err := New(Config{ShardSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(core.GenRandom, 1, 2, 7, "mesi-tso")
	id, err := s.Submit("", spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < maxAttempts-1; i++ {
		l, err := s.Claim("w")
		if err != nil || l == nil {
			t.Fatalf("attempt %d: no lease", i)
		}
		if err := s.Fail(l.ID, "synthetic crash"); err != nil {
			t.Fatal(err)
		}
	}
	if st, _ := s.Get(id); st.State != StateRunning {
		t.Fatalf("campaign state %s after %d failures, want running", st.State, maxAttempts-1)
	}
	l, err := s.Claim("w")
	if err != nil || l == nil {
		t.Fatal("last attempt: no lease")
	}
	if err := s.Fail(l.ID, "synthetic crash"); err != nil {
		t.Fatal(err)
	}
	st, err := s.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateFailed {
		t.Fatalf("campaign state %s after maxAttempts failures, want failed", st.State)
	}
	if _, err := s.ResultBytes(id); err == nil {
		t.Error("failed campaign served a result")
	}
}

// drainClaims runs every claimable shard in-process until the service
// has no pending work.
func drainClaims(t *testing.T, s *Service) {
	t.Helper()
	for {
		l, err := s.Claim("w")
		if err != nil {
			t.Fatal(err)
		}
		if l == nil {
			return
		}
		sr, err := fleet.RunShard(context.Background(), l.Spec, l.Range, fleet.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Complete(l.ID, sr); err != nil {
			t.Fatal(err)
		}
	}
}

// TestServiceTerminalRetention: the service keeps at most
// retainTerminal finished campaigns; older ones are evicted with their
// merged bytes, while recent terminal campaigns keep serving their
// results.
func TestServiceTerminalRetention(t *testing.T) {
	s, err := New(Config{ShardSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(core.GenRandom, 1, 2, 5, "mesi-tso") // 1 item, 1 shard
	// Two done campaigns to be evicted, failed ones (no simulation) up
	// to the cap, then two done ones that stay.
	var ids []string
	for i := 0; i < retainTerminal+2; i++ {
		id, err := s.Submit("", spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		if i < 2 || i >= retainTerminal {
			drainClaims(t, s)
		} else {
			failCampaign(t, s)
		}
	}

	for _, id := range ids[:2] {
		if _, err := s.Get(id); !errors.Is(err, ErrNotFound) {
			t.Errorf("evicted campaign %s still visible: %v", id, err)
		}
	}
	if st, err := s.Get(ids[2]); err != nil || st.State != StateFailed {
		t.Fatalf("retained failed campaign %s: %+v, %v", ids[2], st, err)
	}
	for _, id := range ids[retainTerminal:] {
		st, err := s.Get(id)
		if err != nil || st.State != StateDone {
			t.Fatalf("retained campaign %s: %+v, %v", id, st, err)
		}
		if _, err := s.ResultBytes(id); err != nil {
			t.Errorf("retained campaign %s lost its result: %v", id, err)
		}
	}
}
