package fleet

import (
	"context"
	"time"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/scenario"
)

// ScenarioSweep shards a campaign fleet across a scenario matrix: every
// (scenario, sample) pair is one work item, with the item's seed a pure
// function of (baseSeed, flat index) — the same derivation the plain
// SampleSet uses — so sweep results are byte-identical at any worker
// count. Under Options.Collective all items share one verdict memo;
// the memo's scenario scoping keeps verdicts from leaking between
// scenarios, so sharing is safe even across different machine
// contracts.
//
// The result is indexed [scenario][sample]. StopOnFound cancels the
// whole sweep (all scenarios) as soon as any sample finds a bug.
// Options.Islands is ignored: islands exchange chromosomes between
// populations bred for one machine contract, which makes no sense
// across scenarios; run per-scenario island fleets via SampleSet
// instead.
func ScenarioSweep(ctx context.Context, base core.Config, scens []scenario.Scenario, samples int, baseSeed int64, opts Options) ([][]core.Result, Stats, error) {
	opts = opts.withDefaults()
	//mcvlint:allow nondeterm wall-clock telemetry for Stats.Wall; excluded from canonical bytes
	start := time.Now()
	n := len(scens) * samples
	em := newEmitter(opts, n)

	if opts.Collective && base.Memo == nil {
		base.Memo = collective.NewMemo()
	}
	attachStore(base.Memo, opts)

	flat, err := pooledItems(ctx, n, opts, em, func(i int) (core.Config, string) {
		cfg := base
		cfg.Scenario = scens[i/samples]
		cfg.Seed = core.SampleSeed(baseSeed, i)
		return cfg, cfg.Scenario.Name
	})

	out := make([][]core.Result, len(scens))
	for si := range scens {
		out[si] = flat[si*samples : (si+1)*samples]
	}
	return out, em.finish(base.Memo, start), err
}
