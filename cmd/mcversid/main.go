// Command mcversid is the McVerSi campaign service daemon: an
// HTTP/JSON job queue for verification campaigns with admission
// control, seed-range leases for a distributed worker fleet, and a
// byte-deterministic shard merger.
//
//	mcversid -listen :8433 -workers 2 -checkpoint /var/lib/mcversid
//
// Campaigns are submitted as serialized core.Spec documents (see
// cmd/mcversi -remote for the turnkey client). Work is executed by the
// embedded worker pool (-workers) and/or remote cmd/mcversi-worker
// processes; merged results are byte-identical regardless of the mix.
//
// Observability rides on the same listener: GET /metrics serves the
// Prometheus text exposition and GET /statusz a JSON status page with
// per-campaign phase breakdowns. -debug-addr starts a second listener
// with net/http/pprof (opt-in so profiling endpoints never share the
// public port).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/service"
)

func main() {
	listen := flag.String("listen", ":8433", "HTTP listen address")
	workers := flag.Int("workers", 1, "embedded worker count (0 = remote workers only)")
	parallel := flag.Int("parallel", 0, "intra-shard fleet workers per embedded worker (0 = all cores)")
	shardSize := flag.Int("shard-size", 0, "lease granularity in items (0 = default)")
	leaseTTL := flag.Duration("lease-ttl", 0, "lease TTL before a silent worker's range is re-issued (0 = default 30s)")
	maxActive := flag.Int("max-active", 0, "concurrently running campaigns (0 = default)")
	maxQueued := flag.Int("max-queued", 0, "queued campaign cap (0 = default)")
	tenantPending := flag.Int("tenant-pending", 0, "per-tenant queued+running cap (0 = default)")
	maxItems := flag.Int("max-items", 0, "per-campaign item cap (0 = default)")
	maxAttempts := flag.Int("max-attempts", 0, "lease re-issues per shard before the campaign fails (0 = default)")
	checkpoint := flag.String("checkpoint", "", "durable campaign directory (empty = in-memory only)")
	retain := flag.Int("retain", 0, "finished campaigns kept before the oldest are evicted (0 = default 64)")
	debugAddr := flag.String("debug-addr", "", "net/http/pprof listen address (empty = disabled)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "mcversid: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}

	cfg := service.Config{
		MaxActive:        *maxActive,
		MaxQueued:        *maxQueued,
		TenantMaxPending: *tenantPending,
		MaxItems:         *maxItems,
		ShardSize:        *shardSize,
		LeaseTTL:         *leaseTTL,
		MaxAttempts:      *maxAttempts,
		FleetWorkers:     *parallel,
		CheckpointDir:    *checkpoint,
		RetainTerminal:   *retain,
	}
	svc, err := service.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcversid:", err)
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	wg := svc.StartWorkers(ctx, *workers)

	// Reap leases held by dead workers even when no live worker is
	// polling to trigger the lazy path.
	go func() {
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				if n := svc.ExpireLeases(); n > 0 {
					fmt.Fprintf(os.Stderr, "mcversid: re-issued %d expired lease(s)\n", n)
				}
			}
		}
	}()

	// Profiling stays off the public port: pprof registers itself on
	// http.DefaultServeMux, which only this opt-in listener serves.
	if *debugAddr != "" {
		go func() {
			fmt.Fprintf(os.Stderr, "mcversid: pprof on %s\n", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "mcversid: pprof:", err)
			}
		}()
	}

	srv := &http.Server{Addr: *listen, Handler: svc.Handler()}
	go func() {
		<-ctx.Done()
		// Graceful drain: flip mcversid_draining, log what is in flight
		// (leases are simply abandoned — their ranges re-run to identical
		// bytes; queued/running campaigns recover from checkpoints).
		d := svc.Drain()
		fmt.Fprintf(os.Stderr, "mcversid: draining: %d lease(s) in flight, %d queued + %d running campaign(s)\n",
			d.Leases, d.Queued, d.Running)
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(shutCtx)
	}()

	fmt.Fprintf(os.Stderr, "mcversid: listening on %s (%d embedded workers)\n", *listen, *workers)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "mcversid:", err)
		os.Exit(1)
	}
	wg.Wait()
}
