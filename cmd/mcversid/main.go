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
// The admission, lease and retention limits are fixed (see
// internal/service): 4 running and 64 queued campaigns, 8 pending per
// tenant, 4096 items per campaign, a 30 s lease TTL, 5 attempts per
// shard, and the 64 most recent finished campaigns kept.
//
// GET /statusz on the same listener is the one status page: service
// counters and every retained campaign with its phase breakdown; on
// SIGTERM the daemon logs its in-flight work from it. -debug-addr
// starts a second listener with net/http/pprof (opt-in so profiling
// endpoints never share the public port). Both listeners close a
// connection that has not sent its request headers within 5 s.
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

// readHeaderTimeout bounds how long a connection may take to send its
// request line and headers on either listener, so a stalled client
// cannot hold a goroutine and a file descriptor forever.
const readHeaderTimeout = 5 * time.Second

func main() {
	listen := flag.String("listen", ":8433", "HTTP listen address")
	workers := flag.Int("workers", 1, "embedded worker count (0 = remote workers only)")
	parallel := flag.Int("parallel", 0, "intra-shard fleet workers per embedded worker (0 = all cores)")
	shardSize := flag.Int("shard-size", 0, "lease granularity in items (0 = 4)")
	checkpoint := flag.String("checkpoint", "", "durable campaign directory (empty = in-memory only)")
	debugAddr := flag.String("debug-addr", "", "net/http/pprof listen address (empty = disabled)")
	flag.Parse()
	usage := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "mcversid: "+format+"\n", args...)
		os.Exit(2)
	}
	switch {
	case flag.NArg() > 0:
		usage("unexpected argument %q", flag.Arg(0))
	case *workers < 0:
		usage("-workers must not be negative, got %d", *workers)
	case *parallel < 0:
		usage("-parallel must not be negative, got %d", *parallel)
	case *shardSize < 0:
		usage("-shard-size must not be negative, got %d", *shardSize)
	}

	svc, err := service.New(service.Config{
		ShardSize:     *shardSize,
		FleetWorkers:  *parallel,
		CheckpointDir: *checkpoint,
	})
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
			dbg := &http.Server{Addr: *debugAddr, ReadHeaderTimeout: readHeaderTimeout}
			if err := dbg.ListenAndServe(); err != nil {
				fmt.Fprintln(os.Stderr, "mcversid: pprof:", err)
			}
		}()
	}

	srv := &http.Server{Addr: *listen, Handler: svc.Handler(), ReadHeaderTimeout: readHeaderTimeout}
	go func() {
		<-ctx.Done()
		// Graceful drain: log what is in flight (leases are simply
		// abandoned — their ranges re-run to identical bytes; queued and
		// running campaigns recover from checkpoints).
		st := svc.Statusz().Stats
		fmt.Fprintf(os.Stderr, "mcversid: draining: %d lease(s) in flight, %d queued + %d running campaign(s)\n",
			st.Leases, st.Queued, st.Running)
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
