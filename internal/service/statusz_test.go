package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
)

func TestMetricsAdmissionCounters(t *testing.T) {
	s, err := New(Config{ShardSize: 1, Now: newFakeClock().Now})
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(core.GenRandom, 1, 2, 7, "mesi-tso")

	if _, err := s.Submit("a", testSpec(core.GenRandom, maxItems+1, 2, 7, "mesi-tso")); err == nil {
		t.Fatal("oversized spec admitted")
	}
	if _, err := s.Submit("a", core.Spec{}); err == nil {
		t.Fatal("invalid spec admitted")
	}
	for i := 0; i < tenantMaxPending; i++ {
		if _, err := s.Submit("a", spec); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Submit("a", spec); err == nil {
		t.Fatal("tenant budget exceeded but admitted")
	}
	fillQueue(t, tenantMaxPending, func(tenant string) (string, error) { return s.Submit(tenant, spec) })
	if _, err := s.Submit("b", spec); err == nil {
		t.Fatal("queue overflow admitted")
	}

	got := s.Statusz().Stats
	want := ServiceStats{
		Campaigns: maxActive + maxQueued, Queued: maxQueued, Running: maxActive,
		Submitted:       maxActive + maxQueued,
		RejectedInvalid: 1, RejectedTooLarge: 1, RejectedQueueFull: 1, RejectedTenantBudget: 1,
	}
	if got != want {
		t.Errorf("stats = %+v\nwant    %+v", got, want)
	}
}

func TestMetricsLeaseLifecycle(t *testing.T) {
	clock := newFakeClock()
	s, err := New(Config{ShardSize: 1, Now: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(core.GenRandom, 2, 2, 7, "mesi-tso")
	if _, err := s.Submit("t", spec); err != nil {
		t.Fatal(err)
	}

	l1, err := s.Claim("w1")
	if err != nil || l1 == nil {
		t.Fatalf("claim: %v %v", l1, err)
	}
	if err := s.Renew(l1.ID); err != nil {
		t.Fatal(err)
	}
	clock.Advance(leaseTTL + time.Second)
	if n := s.ExpireLeases(); n != 1 {
		t.Fatalf("expired %d leases, want 1", n)
	}
	// Zombie completion for the dead lease.
	if err := s.Complete(l1.ID, fleet.ShardResult{}); err != ErrNoLease {
		t.Fatalf("zombie completion: %v", err)
	}
	// Re-claim and fail it.
	l2, err := s.Claim("w2")
	if err != nil || l2 == nil {
		t.Fatalf("reclaim: %v %v", l2, err)
	}
	if err := s.Fail(l2.ID, "boom"); err != nil {
		t.Fatal(err)
	}

	st := s.Statusz().Stats
	if st.LeasesIssued != 2 || st.LeaseRenewals != 1 || st.LeasesExpired != 1 ||
		st.ZombieReports != 1 || st.ShardFailures != 1 || st.Leases != 0 {
		t.Errorf("lease counters = %+v", st)
	}
}

// TestMetricsAndStatuszEndToEnd drives a campaign through the embedded
// pool and reads the one status page over HTTP: throughput counters,
// phase spans fed by instrumented workers, and each campaign's
// breakdown. The retired surfaces answer 404.
func TestMetricsAndStatuszEndToEnd(t *testing.T) {
	s, err := New(Config{ShardSize: 2, FleetWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(core.GenRandom, 3, 3, 7, "mesi-tso")
	id, err := s.Submit("t", spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	wg := s.StartWorkers(ctx, 2)
	st := waitDone(t, s, id)
	cancel()
	wg.Wait()
	if st.State != StateDone {
		t.Fatalf("campaign state %s: %s", st.State, st.Err)
	}

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	for _, path := range []string{"/metrics", "/v1/stats"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: %d, want 404", path, resp.StatusCode)
		}
	}

	resp, err := http.Get(srv.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sz Statusz
	if err := json.NewDecoder(resp.Body).Decode(&sz); err != nil {
		t.Fatal(err)
	}
	stats := sz.Stats
	if stats.Done != 1 || stats.Submitted != 1 || stats.ItemsDone != spec.Items() ||
		stats.TestRuns != st.TestRuns || stats.Found != st.Found || stats.LeasesIssued < 2 {
		t.Fatalf("statusz stats = %+v", stats)
	}
	// Workers run shards instrumented, so the phase totals are live.
	if stats.Obs.Sim.Ns <= 0 || stats.Obs.Testgen.Ns <= 0 || stats.Obs.Merging.Count != 1 {
		t.Errorf("statusz phase totals = %+v", stats.Obs)
	}
	if len(sz.Campaigns) != 1 {
		t.Fatalf("statusz carries %d campaigns, want 1", len(sz.Campaigns))
	}
	c := sz.Campaigns[0]
	if c.ID != id || c.State != StateDone {
		t.Fatalf("statusz campaign = %+v", c.Status)
	}
	if c.Obs != stats.Obs {
		t.Errorf("one campaign's breakdown %+v differs from the service totals %+v", c.Obs, stats.Obs)
	}
	if c.PhaseSummary == "" || c.PhaseSummary == "no spans" {
		t.Fatalf("statusz phase summary = %q", c.PhaseSummary)
	}
}

// TestDrainStatus: the in-flight work mcversid logs on SIGTERM reads off
// the status page.
func TestDrainStatus(t *testing.T) {
	s, err := New(Config{ShardSize: 1, Now: newFakeClock().Now})
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(core.GenRandom, 1, 2, 7, "mesi-tso")
	for i := 0; i <= maxActive; i++ {
		if _, err := s.Submit("", spec); err != nil {
			t.Fatal(err)
		}
	}
	if l, err := s.Claim("w"); err != nil || l == nil {
		t.Fatalf("claim: %v %v", l, err)
	}
	if st := s.Statusz().Stats; st.Leases != 1 || st.Queued != 1 || st.Running != maxActive {
		t.Fatalf("in flight = %+v", st)
	}
}
