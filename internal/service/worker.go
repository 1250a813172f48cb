package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/collective"
	"repro/internal/fleet"
	"repro/internal/obs"
)

// Source is where a worker gets its leases: the in-process Service
// (embedded pool) or an HTTP Client (remote fleet). Claim returns nil
// when no work is pending.
type Source interface {
	Claim(ctx context.Context, worker string) (*Lease, error)
	Renew(ctx context.Context, leaseID string) error
	Complete(ctx context.Context, leaseID string, sr fleet.ShardResult) error
	Fail(ctx context.Context, leaseID, reason string) error
}

// WorkerOptions tune a worker loop.
type WorkerOptions struct {
	// Name identifies the worker in leases and events.
	Name string
	// Poll is the idle claim interval (default 250ms; the embedded
	// pool uses a few ms).
	Poll time.Duration
	// FleetWorkers is the intra-shard parallelism (0 = all cores).
	// Results never depend on it.
	FleetWorkers int
	// Obs, when non-nil, accumulates the worker's own copy of every
	// completed shard's phase timing — the local breakdown a worker
	// process prints at shutdown. Shards always run instrumented either
	// way (the snapshot also rides the ShardResult to the service);
	// results are byte-identical regardless.
	Obs *obs.Agg
	// Store, when non-nil, is the durable verdict tier shared by every
	// shard this worker runs: signatures decided in earlier shards,
	// runs, or processes are answered from disk. Shard results are
	// byte-identical with or without it.
	Store collective.VerdictStore
}

func (o WorkerOptions) withDefaults() WorkerOptions {
	if o.Name == "" {
		o.Name = "worker"
	}
	if o.Poll <= 0 {
		o.Poll = 250 * time.Millisecond
	}
	return o
}

// RunWorker claims and executes leases until ctx is cancelled. Each
// lease runs through fleet.RunShard with collective checking on; a
// renewal heartbeat at TTL/3 keeps the lease alive across long shards,
// and a lease lost mid-run (service restart, TTL missed under
// overload) cancels the run and discards the shard — the service has
// already re-issued the range, and the re-run produces identical
// bytes. Shard errors are reported via Fail so the service can re-issue
// or give up.
func RunWorker(ctx context.Context, src Source, opts WorkerOptions) error {
	opts = opts.withDefaults()
	for {
		if err := ctx.Err(); err != nil {
			return nil
		}
		lease, err := src.Claim(ctx, opts.Name)
		if err != nil {
			// Transient transport errors: back off and retry.
			if !sleepCtx(ctx, opts.Poll) {
				return nil
			}
			continue
		}
		if lease == nil {
			if !sleepCtx(ctx, opts.Poll) {
				return nil
			}
			continue
		}
		runLease(ctx, src, lease, opts)
	}
}

// runLease executes one lease to completion, heartbeating the whole
// time.
func runLease(ctx context.Context, src Source, lease *Lease, opts WorkerOptions) {
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	ttl := time.Duration(lease.TTLMillis) * time.Millisecond
	heartbeat := ttl / 3
	if heartbeat <= 0 {
		heartbeat = time.Second
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(heartbeat)
		defer t.Stop()
		for {
			select {
			case <-runCtx.Done():
				return
			case <-t.C:
				if err := src.Renew(runCtx, lease.ID); errors.Is(err, ErrNoLease) {
					// The range now belongs to someone else; abandon it.
					cancel()
					return
				}
			}
		}
	}()

	sr, err := fleet.RunShard(runCtx, lease.Spec, lease.Range, fleet.Options{
		Workers:    opts.FleetWorkers,
		Collective: true,
		Obs:        true,
		Store:      opts.Store,
	})
	// Read before the cancel below: a run cut off because the lease was
	// lost or the worker is stopping is abandoned, not failed.
	abandoned := runCtx.Err() != nil
	cancel()
	wg.Wait()
	if err != nil {
		// RunShard returns partial results beside its error; they are
		// never a shard's outcome.
		if !abandoned {
			_ = src.Fail(ctx, lease.ID, err.Error())
		}
		return
	}
	if sr.Obs != nil {
		opts.Obs.Absorb(*sr.Obs)
	}
	_ = src.Complete(ctx, lease.ID, sr)
}

func sleepCtx(ctx context.Context, d time.Duration) bool {
	select {
	case <-ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}

// localSource adapts the in-process Service to the Source interface
// for the embedded pool.
type localSource struct{ s *Service }

func (l localSource) Claim(_ context.Context, worker string) (*Lease, error) {
	return l.s.Claim(worker)
}
func (l localSource) Renew(_ context.Context, leaseID string) error { return l.s.Renew(leaseID) }
func (l localSource) Complete(_ context.Context, leaseID string, sr fleet.ShardResult) error {
	return l.s.Complete(leaseID, sr)
}
func (l localSource) Fail(_ context.Context, leaseID, reason string) error {
	return l.s.Fail(leaseID, reason)
}

// StartWorkers launches n embedded workers against the service's own
// lease queue, making a lone mcversid useful without any remote fleet.
// They stop when ctx is cancelled; Wait on the returned WaitGroup for
// drain.
func (s *Service) StartWorkers(ctx context.Context, n int) *sync.WaitGroup {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_ = RunWorker(ctx, localSource{s}, WorkerOptions{
				Name:         fmt.Sprintf("embedded-%d", i),
				Poll:         5 * time.Millisecond,
				FleetWorkers: s.cfg.FleetWorkers,
				Store:        s.cfg.VerdictStore,
			})
		}(i)
	}
	return &wg
}
