package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"net/http/httptest"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/fleet"
	"repro/internal/gp"
	"repro/internal/host"
	"repro/internal/memsys"
	"repro/internal/service"
	"repro/internal/stats"
	"repro/internal/testgen"
)

// Service shape: 2-item leases, one fleet worker per shard, two remote
// workers — so two shards simulate concurrently in this process.
const (
	serviceShardSize = 2
	serviceWorkers   = 2
)

// serviceSpec is the cmd/bench service shape: McVerSi-RAND, 48-op
// tests, 2 iterations, 10 test-runs per item, 1 KB.
func serviceSpec(seed int64, sz sizes) (core.Spec, error) {
	scens, err := scenarios("mesi-tso", "mesi-pso")
	if err != nil {
		return core.Spec{}, err
	}
	cfg := core.DefaultConfig()
	cfg.Generator = core.GenRandom
	cfg.Test = testgen.Config{Size: 48, Threads: 8, Layout: memsys.MustLayout(1024, 16)}
	cfg.GP = gp.PaperParams()
	cfg.Coverage = coverage.DefaultParams()
	cfg.Host = host.Options{Iterations: 2, Barrier: host.HostBarrier, MaxTicksPerIteration: 30_000_000}
	cfg.MaxTestRuns = 10
	return core.NewSpec(cfg, scens, sz.ServiceSamples, seed), nil
}

// loopback is a running mcversid behind httptest with its workers, one
// client, and the local reference bytes every campaign must return.
type loopback struct {
	spec      core.Spec
	reference []byte
	sz        sizes

	srv    *httptest.Server
	client *service.Client
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

func prepareService(seed int64, sz sizes, _ string) (instance, error) {
	spec, err := serviceSpec(seed, sz)
	if err != nil {
		return nil, err
	}
	svc, err := service.New(service.Config{ShardSize: serviceShardSize, FleetWorkers: 1})
	if err != nil {
		return nil, err
	}
	l := &loopback{spec: spec, sz: sz, srv: httptest.NewServer(svc.Handler())}
	l.client = service.NewClient(l.srv.URL)
	ctx, cancel := context.WithCancel(context.Background())
	l.cancel = cancel
	for i := 0; i < serviceWorkers; i++ {
		l.wg.Add(1)
		go func(i int) {
			defer l.wg.Done()
			// RunWorker returns nil once ctx is cancelled.
			_ = service.RunWorker(ctx, l.client, service.WorkerOptions{
				Name: fmt.Sprintf("bench-%d", i), Poll: time.Millisecond, FleetWorkers: 1,
			})
		}(i)
	}
	if l.reference, _, err = l.local(serviceWorkers); err != nil {
		l.close()
		return nil, err
	}
	return l, nil
}

func (l *loopback) close() {
	l.cancel()
	l.wg.Wait()
	l.srv.Close()
}

// local runs the spec through fleet.LocalMerged and returns its
// canonical bytes and wall time.
func (l *loopback) local(workers int) ([]byte, time.Duration, error) {
	opts := fleet.DefaultOptions()
	opts.Workers = workers
	t0 := time.Now()
	m, err := fleet.LocalMerged(context.Background(), l.spec, opts)
	if err != nil {
		return nil, 0, err
	}
	data, err := m.CanonicalBytes()
	return data, time.Since(t0), err
}

// campaign is one op: submit → wait → fetch merged bytes, which must
// equal the local reference.
func (l *loopback) campaign(id int, log *spanLog) (submit, fetch, total time.Duration, err error) {
	ctx := context.Background()
	root := log.begin("campaign", id, 0, -1)
	sp := log.begin("service.Client.Submit", id, 0, root)
	cid, err := l.client.Submit(ctx, "bench", l.spec)
	submit = log.end(sp)
	if err != nil {
		return
	}
	sp = log.begin("service.Client.WaitDone", id, 0, root)
	_, err = l.client.WaitDone(ctx, cid, time.Millisecond)
	log.end(sp)
	if err != nil {
		return
	}
	sp = log.begin("service.Client.ResultBytes", id, 0, root)
	data, err := l.client.ResultBytes(ctx, cid)
	fetch = log.end(sp)
	total = log.end(root)
	if err == nil && !bytes.Equal(data, l.reference) {
		err = fmt.Errorf("campaign %s returned %d bytes that differ from the local reference (%d bytes)",
			cid, len(data), len(l.reference))
	}
	return
}

func (l *loopback) run(log *spanLog) (outcome, []float64, []float64, []float64) {
	o := outcome{Fingerprint: fmt.Sprintf("%x", sha256.Sum256(l.reference))}
	var submitMs, fetchMs, totalMs []float64
	for i := 0; i < l.sz.CampaignsPerRep; i++ {
		submit, fetch, total, err := l.campaign(i, log)
		o.Attempted++
		if err != nil {
			o.Failed++
			o.Notes = append(o.Notes, err.Error())
			continue
		}
		submitMs = append(submitMs, submit.Seconds()*1e3)
		fetchMs = append(fetchMs, fetch.Seconds()*1e3)
		totalMs = append(totalMs, total.Seconds()*1e3)
	}
	return o, submitMs, fetchMs, totalMs
}

func (l *loopback) rep() outcome {
	o, _, _, _ := l.run(nil)
	return o
}

func (l *loopback) traced(log *spanLog) (outcome, layerMetrics) {
	gw := startGCWatch()
	o, submitMs, fetchMs, totalMs := l.run(log)
	lm := layerMetrics{
		"service.campaign_ms_p50": stats.Median(totalMs),
		"service.campaign_ms_p85": percentile(totalMs, 0.85),
		"service.submit_ms":       stats.Median(submitMs),
		"service.result_fetch_ms": stats.Median(fetchMs),
		"service.shards":          float64(len(fleet.PlanShards(l.spec.Items(), serviceShardSize))),
		"service.result_bytes":    float64(len(l.reference)),
		"fleet.canonical_bytes":   float64(len(l.reference)),
	}
	gw.report(lm)
	return o, lm
}

// kernels holds the two paired ratios of this workload: the service's
// tax over the identical local merge at the same width, and what a
// second local worker buys.
func (l *loopback) kernels() layerMetrics {
	fixed := func(done int) bool { return done < l.sz.Pairs }
	localWall := func(workers int) func() float64 {
		return func() float64 {
			_, d, _ := l.local(workers) // ran in set-up; a failure reads as 0 and drops the pair
			return d.Seconds()
		}
	}
	remoteWall := func() float64 {
		_, _, total, err := l.campaign(-1, newSpanLog()) // a throwaway log: only the duration is wanted
		if err != nil {
			return 0
		}
		return total.Seconds()
	}
	lm := layerMetrics{}
	lm["service.overhead_share"] = pairedRatio(fixed, localWall(serviceWorkers), remoteWall) - 1
	// pairedRatio returns second/first, so the speed-up of two workers
	// is one-worker time over two-worker time.
	lm["fleet.w2_speedup"] = pairedRatio(fixed, localWall(2), localWall(1))

	// Merge cost on this spec's own shard plan.
	var shards []fleet.ShardResult
	opts := fleet.DefaultOptions()
	opts.Workers = 1
	for _, r := range fleet.PlanShards(l.spec.Items(), serviceShardSize) {
		sr, err := fleet.RunShard(context.Background(), l.spec, r, opts)
		if err != nil {
			return lm
		}
		shards = append(shards, sr)
	}
	lm["fleet.merge_ms"] = timeEach(l.sz.KernelIters, func(int) {
		_, _ = fleet.MergeShards(l.spec.Items(), shards)
	}) / 1e3
	return lm
}
