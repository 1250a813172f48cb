package service

import (
	"bytes"
	"context"
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
)

// cancelOnClaim is a worker's lease source that stops the worker as
// soon as it holds a lease: the shard run starts on a cancelled context
// and is abandoned mid-way.
type cancelOnClaim struct {
	Source
	cancel context.CancelFunc
}

func (c cancelOnClaim) Claim(ctx context.Context, worker string) (*Lease, error) {
	l, err := c.Source.Claim(ctx, worker)
	if l != nil {
		c.cancel()
	}
	return l, err
}

// faultRig is one campaign on a fresh service with a fake clock, served
// over HTTP; workers talk to it through the real client.
type faultRig struct {
	s      *Service
	clk    *fakeClock
	client *Client
	id     string
}

// claim takes a lease through the wire and runs its shard.
func (r *faultRig) claim(t *testing.T, worker string) (*Lease, fleet.ShardResult) {
	t.Helper()
	l, err := r.client.Claim(context.Background(), worker)
	if err != nil || l == nil {
		t.Fatalf("%s: no lease (%v)", worker, err)
	}
	sr, err := fleet.RunShard(context.Background(), l.Spec, l.Range, fleet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return l, sr
}

// TestServiceFaults injects one fault per case into a two-shard
// campaign. Every case must end with the merged bytes of
// fleet.LocalMerged, and every late or repeated report must be refused
// with a typed error. Run it with -race: workers and HTTP handlers
// share the service.
func TestServiceFaults(t *testing.T) {
	spec := testSpec(core.GenRandom, 2, 3, 29, "mesi-tso") // 2 items, 2 shards
	want := referenceBytes(t, spec)
	ctx := context.Background()

	cases := []struct {
		name string
		run  func(t *testing.T, r *faultRig)
	}{
		{"result delivered twice", func(t *testing.T, r *faultRig) {
			l, sr := r.claim(t, "w")
			if err := r.client.Complete(ctx, l.ID, sr); err != nil {
				t.Fatal(err)
			}
			if err := r.client.Complete(ctx, l.ID, sr); !errors.Is(err, ErrNoLease) {
				t.Fatalf("second delivery: got %v, want ErrNoLease", err)
			}
			drainClaims(t, r.s)
		}},
		{"completion after its lease expired and was re-issued", func(t *testing.T, r *faultRig) {
			slow, late := r.claim(t, "slow")
			r.clk.Advance(leaseTTL + time.Second)
			fast, sr := r.claim(t, "fast")
			if fast.Range != slow.Range {
				t.Fatalf("re-issued %s, want the expired %s", fast.Range, slow.Range)
			}
			if err := r.client.Complete(ctx, fast.ID, sr); err != nil {
				t.Fatal(err)
			}
			if err := r.client.Complete(ctx, slow.ID, late); !errors.Is(err, ErrNoLease) {
				t.Fatalf("late completion: got %v, want ErrNoLease", err)
			}
			drainClaims(t, r.s)
		}},
		{"fail after complete", func(t *testing.T, r *faultRig) {
			l, sr := r.claim(t, "w")
			if err := r.client.Complete(ctx, l.ID, sr); err != nil {
				t.Fatal(err)
			}
			if err := r.client.Fail(ctx, l.ID, "late crash"); !errors.Is(err, ErrNoLease) {
				t.Fatalf("fail after complete: got %v, want ErrNoLease", err)
			}
			if st, _ := r.s.Get(r.id); st.ItemsDone != 1 || st.Leased != 0 {
				t.Fatalf("a refused Fail moved the campaign: %+v", st)
			}
			drainClaims(t, r.s)
		}},
		{"worker cancelled mid-shard, another finishes the range", func(t *testing.T, r *faultRig) {
			wctx, cancel := context.WithCancel(ctx)
			_ = RunWorker(wctx, cancelOnClaim{r.client, cancel}, WorkerOptions{Name: "cancelled"})
			if st, _ := r.s.Get(r.id); st.Leased != 1 || st.ItemsDone != 0 || st.State != StateRunning {
				t.Fatalf("cancelled worker settled its lease: %+v", st)
			}
			r.clk.Advance(leaseTTL + time.Second)
			wctx, cancel = context.WithCancel(ctx)
			stopped := make(chan struct{})
			go func() {
				defer close(stopped)
				_ = RunWorker(wctx, r.client, WorkerOptions{Name: "finisher", Poll: time.Millisecond})
			}()
			_, err := r.client.WaitDone(ctx, r.id, time.Millisecond)
			cancel()
			<-stopped
			if err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk := newFakeClock()
			s, err := New(Config{ShardSize: 1, FleetWorkers: 1, Now: clk.Now})
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(s.Handler())
			defer srv.Close()
			r := &faultRig{s: s, clk: clk, client: NewClient(srv.URL)}
			if r.id, err = s.Submit("", spec); err != nil {
				t.Fatal(err)
			}
			tc.run(t, r)
			got, err := s.ResultBytes(r.id)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("merged bytes moved:\n  want %s\n  got  %s", want, got)
			}
		})
	}
}
