package fleet

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/gp"
)

// islands runs the shard's GP campaigns as an island model: every epoch
// each live island advances MigrationInterval test-runs in parallel,
// then — at a barrier, in ring order — sends deep copies of its
// migrationSize fittest individuals to the next live island. Because
// every cross-island exchange happens at the barrier in a fixed order,
// the worker count influences only wall-clock time, never results;
// StopOnFound is likewise checked only at the barrier, so even early
// stop is deterministic here.
func (s *shardRun) islands(ctx context.Context) ([]core.Result, error) {
	n := s.r.Len()
	results := make([]core.Result, n)
	camps := make([]*core.Campaign, n)
	for i := range camps {
		camp, err := s.newCampaign(s.r.Start + i)
		if err != nil {
			return results, err
		}
		camps[i] = camp
	}
	//mcvlint:allow nondeterm island start stamp for Elapsed telemetry; never feeds results
	started := time.Now()
	done := make([]bool, n)
	epoch := 0
	finish := func(i int, stopped bool) {
		done[i] = true
		results[i] = camps[i].Result()
		//mcvlint:allow nondeterm per-sample Elapsed telemetry; never feeds results
		s.finish(s.r.Start+i, camps[i], Event{Epoch: epoch, Stopped: stopped, Result: results[i], Elapsed: time.Since(started)})
	}

	for {
		// Parallel slice: each live island advances one epoch. done
		// flags are written by at most one worker per index and read
		// only after the Map barrier.
		_, err := Map(ctx, s.opts.Workers, n, func(ctx context.Context, i int) (struct{}, error) {
			if done[i] {
				return struct{}{}, nil
			}
			completed, err := camps[i].Advance(ctx, s.opts.MigrationInterval)
			if err != nil {
				return struct{}{}, err
			}
			if completed {
				finish(i, false)
			} else if s.opts.Events != nil {
				//mcvlint:allow nondeterm per-sample Elapsed telemetry; never feeds results
				s.emit(s.r.Start+i, Event{Epoch: epoch, Result: camps[i].Result(), Elapsed: time.Since(started)})
			}
			return struct{}{}, nil
		})

		// Barrier reached: collect the live ring.
		var live []int
		foundAny := false
		for i := range camps {
			if !done[i] {
				live = append(live, i)
			} else if results[i].Found {
				foundAny = true
			}
		}
		if err != nil || (s.opts.StopOnFound && foundAny) {
			// Islands cut off mid-run keep and report their partial
			// tallies.
			for _, i := range live {
				finish(i, true)
			}
			return results, err
		}
		if len(live) == 0 {
			return results, nil
		}
		epoch++

		if len(live) < 2 {
			continue
		}
		// Migration: snapshot every live island's elites first, then
		// deliver island live[k]'s elites to live[k+1] (a neighbor
		// ring). Snapshot-then-deliver keeps the exchange independent
		// of delivery order: nobody re-exports a chromosome it just
		// received.
		elites := make([][]*gp.Individual, len(live))
		for k, i := range live {
			elites[k] = camps[i].Engine().Elites(migrationSize)
		}
		for k, i := range live {
			camps[i].Engine().Immigrate(elites[(k+len(live)-1)%len(live)])
		}
	}
}
