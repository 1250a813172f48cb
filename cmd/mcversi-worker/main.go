// Command mcversi-worker is a McVerSi campaign fleet worker: it claims
// deterministic seed-range leases from a mcversid service over HTTP,
// runs them through the campaign fleet, and reports shard results.
//
//	mcversi-worker -server http://queue-host:8433 -name rack7-3
//
// Workers are stateless and interchangeable — every lease carries its
// full campaign spec, and a shard run is a pure function of
// (spec, range). Killing a worker mid-lease loses nothing: the lease
// expires, the range is re-issued, and the re-run produces the same
// bytes.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

func main() {
	server := flag.String("server", "", "mcversid base URL (required), e.g. http://127.0.0.1:8433")
	name := flag.String("name", "", "worker name reported in leases (default host-pid)")
	poll := flag.Duration("poll", 250*time.Millisecond, "idle claim interval")
	parallel := flag.Int("parallel", 0, "intra-shard fleet workers (0 = all cores)")
	flag.Parse()

	usage := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "mcversi-worker: "+format+"\n", args...)
		os.Exit(2)
	}
	switch {
	case flag.NArg() > 0:
		usage("unexpected argument %q", flag.Arg(0))
	case *server == "":
		usage("-server is required")
	case *poll <= 0:
		usage("-poll must be positive, got %v", *poll)
	case *parallel < 0:
		usage("-parallel must not be negative, got %d", *parallel)
	}
	if *name == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		*name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Fprintf(os.Stderr, "mcversi-worker: %s polling %s every %s\n", *name, *server, *poll)
	agg := &obs.Agg{}
	_ = service.RunWorker(ctx, service.NewClient(*server), service.WorkerOptions{
		Name:         *name,
		Poll:         *poll,
		FleetWorkers: *parallel,
		Obs:          agg,
	})
	// The same per-phase breakdown the service aggregates fleet-wide,
	// scoped to this worker's completed shards.
	fmt.Fprintf(os.Stderr, "mcversi-worker: %s phase breakdown: %s\n", *name, agg.Snapshot())
}
