// Command statuszcheck validates a saved mcversid /statusz page for
// the CI service smoke: the page must decode as the service's Statusz
// shape, its counters must show the work (a finished campaign, at least
// one lease per shard of it, test-runs and simulation time recorded),
// and the finished campaign must carry its phase breakdown with exactly
// one merge span. It exists so ci/service_smoke.sh can assert JSON
// structure without a jq dependency.
package main

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/service"
)

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: statuszcheck <statusz.json>")
		os.Exit(2)
	}
	data, err := os.ReadFile(os.Args[1])
	if err != nil {
		fatalf("read: %v", err)
	}
	var sz service.Statusz
	if err := json.Unmarshal(data, &sz); err != nil {
		fatalf("statusz is not valid JSON: %v", err)
	}
	st := sz.Stats
	switch {
	case st.Done < 1:
		fatalf("%d finished campaigns, want >= 1", st.Done)
	case st.TestRuns <= 0:
		fatalf("%d test-runs, want > 0", st.TestRuns)
	case st.Obs.Sim.Ns <= 0:
		fatalf("no simulation time in the service totals: %+v", st.Obs)
	}
	var done *service.CampaignStatusz
	for i := range sz.Campaigns {
		if sz.Campaigns[i].State == service.StateDone {
			done = &sz.Campaigns[i]
			break
		}
	}
	if done == nil {
		fatalf("no campaign in state done among %d campaigns", len(sz.Campaigns))
	}
	if st.LeasesIssued < done.Shards {
		fatalf("%d leases issued, want >= %d (one per shard of campaign %s)", st.LeasesIssued, done.Shards, done.ID)
	}
	if done.Obs.Merging.Count != 1 {
		fatalf("campaign %s: merge spans = %d, want exactly 1", done.ID, done.Obs.Merging.Count)
	}
	fmt.Printf("statusz OK: %d lease(s), %d test-run(s); campaign %s done, phases: %s\n",
		st.LeasesIssued, st.TestRuns, done.ID, done.PhaseSummary)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "statuszcheck: "+format+"\n", args...)
	os.Exit(1)
}
