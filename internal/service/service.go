// Package service is the McVerSi campaign service: a long-running
// registry of verification campaigns behind an HTTP/JSON API, with
// admission control (queue depth, per-tenant budgets), a seed-range
// lease manager, and a shard-result merger.
//
// A submitted campaign is a serializable core.Spec — a scenario list ×
// sample count whose items each have a spec-derived seed. The service
// plans the items into contiguous fleet.Range shards and leases them to
// workers: the embedded pool (Service.StartWorkers) and/or remote
// cmd/mcversi-worker processes claiming over HTTP. Workers run shards
// through fleet.RunShard and report fleet.ShardResult; the service
// merges them with fleet.MergeShards.
//
// Determinism is the load-bearing wall: every shard is a pure function
// of (spec, range), so leases that expire on worker death are simply
// re-issued — a re-run yields identical bytes — and the merged output
// at any worker topology is byte-identical to a single-process
// fleet.LocalMerged run of the same spec (proven in equiv_test.go).
package service

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/obs"
)

// Config tunes the service. The admission, lease and retention limits
// are the constants below, not options.
type Config struct {
	// ShardSize is the lease granularity in items (0 = 4).
	ShardSize int
	// FleetWorkers is the intra-shard worker count used by the
	// embedded pool (0 = all cores). Results never depend on it.
	FleetWorkers int
	// CheckpointDir, when non-empty, makes campaigns durable: specs,
	// completed shard results and terminal states are persisted as
	// JSON and recovered by New after a restart.
	CheckpointDir string
	// Now is the clock (tests inject a fake one).
	Now func() time.Time
}

const (
	// maxActive bounds concurrently running campaigns; further admitted
	// campaigns queue.
	maxActive = 4
	// maxQueued bounds the queue; submissions beyond it are rejected
	// with ErrQueueFull (HTTP 429).
	maxQueued = 64
	// tenantMaxPending bounds one tenant's queued+running campaigns;
	// submissions beyond it are rejected with ErrTenantBudget (429).
	tenantMaxPending = 8
	// maxItems bounds a single campaign's item count (ErrTooLarge, 413).
	maxItems = 4096
	// leaseTTL is how long a claimed shard may go without renewal
	// before its lease expires and the range is re-issued.
	leaseTTL = 30 * time.Second
	// maxAttempts bounds lease re-issues per shard before the campaign
	// is failed (a shard that keeps killing workers must not loop
	// forever).
	maxAttempts = 5
	// retainTerminal caps how many finished (done or failed) campaigns
	// the service keeps; beyond it the oldest are evicted — event log,
	// merged bytes and checkpoint file included — and their IDs return
	// ErrNotFound. Without a cap a long-running daemon's memory and
	// per-request scan cost grow without bound.
	retainTerminal = 64
)

func (c Config) withDefaults() Config {
	if c.ShardSize <= 0 {
		c.ShardSize = 4
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Admission and lookup errors, mapped onto HTTP statuses by the API
// layer.
var (
	ErrNotFound     = errors.New("service: campaign not found")
	ErrQueueFull    = errors.New("service: queue full")
	ErrTenantBudget = errors.New("service: tenant budget exhausted")
	ErrTooLarge     = errors.New("service: campaign too large")
	ErrNotReady     = errors.New("service: result not ready")
	ErrNoLease      = errors.New("service: unknown or expired lease")
)

// CampaignState is a campaign's lifecycle phase.
type CampaignState string

const (
	StateQueued  CampaignState = "queued"
	StateRunning CampaignState = "running"
	StateDone    CampaignState = "done"
	StateFailed  CampaignState = "failed"
)

// shardPhase is one shard's scheduling state.
type shardPhase int

const (
	shardPending shardPhase = iota
	shardLeased
	shardDone
)

type shard struct {
	rng      fleet.Range
	phase    shardPhase
	leaseID  string
	worker   string
	expiry   time.Time
	attempts int
	result   *fleet.ShardResult
}

type campaign struct {
	id     string
	tenant string
	spec   core.Spec
	state  CampaignState
	shards []*shard
	// itemsDone/testRuns/found aggregate completed shards for status
	// reporting; the authoritative numbers come from the final merge.
	itemsDone, testRuns, found int
	merged                     *fleet.Merged
	mergedBytes                []byte
	errMsg                     string
	// ckErr is the latest checkpoint write failure, kept apart from
	// errMsg (the campaign failure reason): a durability degradation
	// must not masquerade as a failed campaign, and a later successful
	// checkpoint clears it.
	ckErr string

	// events is the campaign's progress log; readers pull it from any
	// offset (Events), so none of them can miss an entry.
	events []Event

	// obs accumulates the phase timing of every completed shard (plus
	// the final merge span), for /statusz. Pure side channel: never part
	// of mergedBytes.
	obs obs.Snapshot

	submitted, started, finished time.Time
}

// leaseRef locates a lease's shard.
type leaseRef struct {
	camp  *campaign
	shard *shard
}

// Service is the campaign registry, job queue and lease manager. One
// mutex guards all state; the work itself runs in workers, not under
// the lock.
type Service struct {
	cfg Config

	mu sync.Mutex
	// totals holds the since-start counters of ServiceStats; Statusz
	// fills in the rest.
	totals    ServiceStats
	campaigns map[string]*campaign
	order     []string // admission order; scheduling scans it FIFO
	leases    map[string]*leaseRef
	tenants   map[string]int // queued+running per tenant
	active    int
	seq       int64
	leaseSeq  int64
}

// New builds a service and, when cfg.CheckpointDir is set, recovers
// campaigns from a previous incarnation: terminal campaigns are
// restored as-is (done results re-merged from their shard results),
// in-flight and queued ones re-enter the queue with their completed
// shards retained and their leased shards reset to pending.
func New(cfg Config) (*Service, error) {
	s := &Service{
		cfg:       cfg.withDefaults(),
		campaigns: map[string]*campaign{},
		leases:    map[string]*leaseRef{},
		tenants:   map[string]int{},
	}
	if err := s.loadCheckpoints(); err != nil {
		return nil, err
	}
	return s, nil
}

// Submit admits a campaign: validation, size cap, queue depth and
// tenant budget, in that order. It returns the campaign ID.
func (s *Service) Submit(tenant string, spec core.Spec) (string, error) {
	if tenant == "" {
		tenant = "default"
	}
	if err := spec.Validate(); err != nil {
		s.mu.Lock()
		s.totals.RejectedInvalid++
		s.mu.Unlock()
		return "", err
	}
	items := spec.Items()

	s.mu.Lock()
	defer s.mu.Unlock()
	if items > maxItems {
		s.totals.RejectedTooLarge++
		return "", fmt.Errorf("%w: %d items > cap %d", ErrTooLarge, items, maxItems)
	}
	queued := 0
	for _, id := range s.order {
		if s.campaigns[id].state == StateQueued {
			queued++
		}
	}
	if queued >= maxQueued {
		s.totals.RejectedQueueFull++
		return "", fmt.Errorf("%w: %d campaigns queued", ErrQueueFull, queued)
	}
	if s.tenants[tenant] >= tenantMaxPending {
		s.totals.RejectedTenantBudget++
		return "", fmt.Errorf("%w: tenant %q has %d campaigns pending", ErrTenantBudget, tenant, s.tenants[tenant])
	}
	s.totals.Submitted++

	s.seq++
	c := &campaign{
		id:        fmt.Sprintf("c%08d", s.seq),
		tenant:    tenant,
		spec:      spec,
		state:     StateQueued,
		submitted: s.cfg.Now(),
	}
	for _, r := range fleet.PlanShards(items, s.cfg.ShardSize) {
		c.shards = append(c.shards, &shard{rng: r})
	}
	s.campaigns[c.id] = c
	s.order = append(s.order, c.id)
	s.tenants[tenant]++
	s.emitLocked(c, Event{Type: EventQueued, Items: items})
	s.promoteLocked()
	s.checkpointLocked(c)
	return c.id, nil
}

// promoteLocked moves queued campaigns into the running set while
// active slots remain, in admission order.
func (s *Service) promoteLocked() {
	for _, id := range s.order {
		if s.active >= maxActive {
			return
		}
		c := s.campaigns[id]
		if c.state != StateQueued {
			continue
		}
		c.state = StateRunning
		c.started = s.cfg.Now()
		s.active++
		s.emitLocked(c, Event{Type: EventStarted, Items: c.spec.Items()})
	}
}

// Claim hands the next pending shard to a worker as a lease, scanning
// running campaigns in admission order. It returns nil when no work is
// pending. Expired leases are lazily reclaimed first, so a dead
// worker's range is re-issued by the very claim that would otherwise
// go hungry.
func (s *Service) Claim(worker string) (*Lease, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked(s.cfg.Now())
	for _, id := range s.order {
		c := s.campaigns[id]
		if c.state != StateRunning {
			continue
		}
		for _, sh := range c.shards {
			if sh.phase != shardPending {
				continue
			}
			s.leaseSeq++
			sh.phase = shardLeased
			sh.leaseID = fmt.Sprintf("l%08d", s.leaseSeq)
			sh.worker = worker
			sh.expiry = s.cfg.Now().Add(leaseTTL)
			sh.attempts++
			s.leases[sh.leaseID] = &leaseRef{camp: c, shard: sh}
			s.totals.LeasesIssued++
			s.emitLocked(c, Event{Type: EventLeased, Shard: &sh.rng, Worker: worker})
			return &Lease{
				ID:        sh.leaseID,
				Campaign:  c.id,
				Spec:      c.spec,
				Range:     sh.rng,
				TTLMillis: leaseTTL.Milliseconds(),
			}, nil
		}
	}
	return nil, nil
}

// Renew extends a live lease by the configured TTL.
func (s *Service) Renew(leaseID string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ref, ok := s.leases[leaseID]
	if !ok {
		return ErrNoLease
	}
	ref.shard.expiry = s.cfg.Now().Add(leaseTTL)
	s.totals.LeaseRenewals++
	return nil
}

// Complete records a leased shard's result. A completion racing a lost
// lease returns ErrNoLease and the result is discarded — the range has
// been (or will be) re-issued, and a re-run yields identical bytes, so
// dropping the orphan is always safe. Completing an already-done shard
// is likewise benign.
func (s *Service) Complete(leaseID string, sr fleet.ShardResult) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ref, ok := s.leases[leaseID]
	if !ok {
		s.totals.ZombieReports++
		return ErrNoLease
	}
	c, sh := ref.camp, ref.shard
	delete(s.leases, leaseID)
	if sr.Range != sh.rng || len(sr.Results) != sh.rng.Len() {
		sh.phase = shardPending
		sh.leaseID, sh.worker = "", ""
		return fmt.Errorf("service: shard result %s does not match lease range %s", sr.Range, sh.rng)
	}
	if sh.phase == shardDone {
		return nil
	}
	sh.phase = shardDone
	sh.leaseID = ""
	res := sr
	sh.result = &res

	c.obs = c.obs.Merge(sr.Obs)
	s.totals.Obs = s.totals.Obs.Merge(sr.Obs)
	c.itemsDone += sh.rng.Len()
	s.totals.ItemsDone += sh.rng.Len()
	for i, r := range sr.Results {
		c.testRuns += r.TestRuns
		s.totals.TestRuns += r.TestRuns
		if r.Found {
			c.found++
			s.totals.Found++
		}
		rr := r
		s.emitLocked(c, Event{
			Type: EventSample, Sample: sr.Range.Start + i,
			Scenario: c.spec.ItemScenario(sr.Range.Start + i).Name,
			Result:   &rr,
		})
	}
	s.emitLocked(c, Event{
		Type: EventShard, Shard: &sh.rng, Worker: sh.worker,
		ItemsDone: c.itemsDone, Items: c.spec.Items(), TestRuns: c.testRuns,
	})

	if c.itemsDone == c.spec.Items() {
		s.finishLocked(c)
	}
	s.checkpointLocked(c)
	return nil
}

// Fail reports a shard run error. The range goes back to pending for
// re-issue; a shard exceeding maxAttempts fails the whole campaign.
func (s *Service) Fail(leaseID, reason string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ref, ok := s.leases[leaseID]
	if !ok {
		s.totals.ZombieReports++
		return ErrNoLease
	}
	s.totals.ShardFailures++
	delete(s.leases, leaseID)
	c, sh := ref.camp, ref.shard
	if sh.phase != shardLeased {
		return nil
	}
	sh.phase = shardPending
	sh.leaseID, sh.worker = "", ""
	if sh.attempts >= maxAttempts {
		s.failLocked(c, fmt.Sprintf("shard %s failed %d times, last: %s", sh.rng, sh.attempts, reason))
	}
	s.checkpointLocked(c)
	return nil
}

// finishLocked merges a fully-sharded campaign and publishes its
// terminal state.
func (s *Service) finishLocked(c *campaign) {
	shards := make([]fleet.ShardResult, 0, len(c.shards))
	for _, sh := range c.shards {
		shards = append(shards, *sh.result)
	}
	// The merge itself is a measured phase. MergeShards stays clock-free
	// (pure function of the shard results); the service times the call —
	// real wall clock, not cfg.Now, which tests fake.
	t0 := time.Now()
	merged, err := fleet.MergeShards(c.spec.Items(), shards)
	if err != nil {
		s.failLocked(c, err.Error())
		return
	}
	bytes, err := merged.CanonicalBytes()
	if err != nil {
		s.failLocked(c, err.Error())
		return
	}
	mergeSpan := obs.Span(obs.PhaseMerge, time.Since(t0))
	c.obs = merged.Obs.Merge(mergeSpan)
	s.totals.Obs = s.totals.Obs.Merge(mergeSpan)
	c.merged = &merged
	c.mergedBytes = bytes
	c.state = StateDone
	c.finished = s.cfg.Now()
	s.active--
	s.tenants[c.tenant]--
	s.emitLocked(c, Event{
		Type: EventDone, Items: merged.Stats.Items,
		ItemsDone: merged.Stats.Items, TestRuns: merged.Stats.TestRuns,
	})
	s.promoteLocked()
	s.pruneTerminalLocked()
}

func (s *Service) failLocked(c *campaign, msg string) {
	if c.state == StateDone || c.state == StateFailed {
		return
	}
	if c.state == StateRunning {
		s.active--
	}
	c.state = StateFailed
	c.errMsg = msg
	c.finished = s.cfg.Now()
	s.tenants[c.tenant]--
	for _, sh := range c.shards {
		if sh.phase == shardLeased {
			delete(s.leases, sh.leaseID)
			sh.phase = shardPending
			sh.leaseID, sh.worker = "", ""
		}
	}
	s.emitLocked(c, Event{Type: EventFailed, Err: msg})
	s.promoteLocked()
	s.pruneTerminalLocked()
}

// pruneTerminalLocked enforces the terminal-campaign retention cap:
// when more than retainTerminal campaigns are done/failed, the oldest
// (by admission order) are evicted — dropped from memory along with
// their event logs and merged bytes, and their checkpoint files
// deleted. Queued and running campaigns are never touched, so the
// admission scans over s.order stay bounded by
// active + queued + retainTerminal.
func (s *Service) pruneTerminalLocked() {
	terminal := 0
	for _, id := range s.order {
		switch s.campaigns[id].state {
		case StateDone, StateFailed:
			terminal++
		}
	}
	if terminal <= retainTerminal {
		return
	}
	evict := terminal - retainTerminal
	kept := s.order[:0]
	for _, id := range s.order {
		c := s.campaigns[id]
		if evict > 0 && (c.state == StateDone || c.state == StateFailed) {
			evict--
			delete(s.campaigns, id)
			s.removeCheckpointLocked(c)
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// ExpireLeases reclaims leases past their TTL (also done lazily on
// every Claim); it returns how many were re-issued. The daemon runs
// this on a ticker so ranges held by dead workers free up even when no
// live worker is polling.
func (s *Service) ExpireLeases() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.expireLocked(s.cfg.Now())
}

func (s *Service) expireLocked(now time.Time) int {
	n := 0
	for id, ref := range s.leases {
		if ref.shard.phase == shardLeased && now.After(ref.shard.expiry) {
			delete(s.leases, id)
			ref.shard.phase = shardPending
			ref.shard.leaseID = ""
			s.totals.LeasesExpired++
			s.emitLocked(ref.camp, Event{Type: EventExpired, Shard: &ref.shard.rng, Worker: ref.shard.worker})
			ref.shard.worker = ""
			n++
		}
	}
	return n
}

// Status is a campaign's externally visible state.
type Status struct {
	ID        string        `json:"id"`
	Tenant    string        `json:"tenant"`
	State     CampaignState `json:"state"`
	Items     int           `json:"items"`
	ItemsDone int           `json:"items_done"`
	Shards    int           `json:"shards"`
	Leased    int           `json:"leased"`
	TestRuns  int           `json:"test_runs"`
	Found     int           `json:"found"`
	Err       string        `json:"error,omitempty"`
	// CheckpointErr reports a degraded-durability condition (the latest
	// checkpoint write failed); the campaign itself is unaffected.
	CheckpointErr string    `json:"checkpoint_error,omitempty"`
	Submitted     time.Time `json:"submitted"`
	Finished      time.Time `json:"finished"`
}

// Get returns a campaign's status.
func (s *Service) Get(id string) (Status, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.campaigns[id]
	if !ok {
		return Status{}, ErrNotFound
	}
	return s.statusLocked(c), nil
}

func (s *Service) statusLocked(c *campaign) Status {
	st := Status{
		ID: c.id, Tenant: c.tenant, State: c.state,
		Items: c.spec.Items(), ItemsDone: c.itemsDone,
		Shards: len(c.shards), TestRuns: c.testRuns, Found: c.found,
		Err: c.errMsg, CheckpointErr: c.ckErr,
		Submitted: c.submitted, Finished: c.finished,
	}
	for _, sh := range c.shards {
		if sh.phase == shardLeased {
			st.Leased++
		}
	}
	return st
}

// ResultBytes returns a finished campaign's canonical merged output.
func (s *Service) ResultBytes(id string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.campaigns[id]
	if !ok {
		return nil, ErrNotFound
	}
	switch c.state {
	case StateDone:
		return c.mergedBytes, nil
	case StateFailed:
		return nil, fmt.Errorf("service: campaign failed: %s", c.errMsg)
	default:
		return nil, ErrNotReady
	}
}

// ServiceStats is the service-wide block of the status page. The first
// group is the state of the retained campaigns and live leases when the
// page was taken; the rest are totals since the process started.
type ServiceStats struct {
	Campaigns int `json:"campaigns"`
	Queued    int `json:"queued"`
	Running   int `json:"running"`
	Done      int `json:"done"`
	Failed    int `json:"failed"`
	Leases    int `json:"leases"`

	Submitted            int `json:"submitted"`
	RejectedInvalid      int `json:"rejected_invalid"`
	RejectedTooLarge     int `json:"rejected_too_large"`
	RejectedQueueFull    int `json:"rejected_queue_full"`
	RejectedTenantBudget int `json:"rejected_tenant_budget"`
	LeasesIssued         int `json:"leases_issued"`
	LeaseRenewals        int `json:"lease_renewals"`
	LeasesExpired        int `json:"leases_expired"`
	// ZombieReports counts completions and failures for unknown or
	// expired leases (their results discarded).
	ZombieReports int `json:"zombie_reports"`
	ShardFailures int `json:"shard_failures"`
	ItemsDone     int `json:"items_done"`
	TestRuns      int `json:"test_runs"`
	Found         int `json:"found"`
	// Obs totals the phase spans of every completed shard and merge.
	Obs obs.Snapshot `json:"obs"`
}

// CampaignStatusz is one campaign's status plus its phase timing
// breakdown — the accumulated spans of every completed shard, and for
// finished campaigns the merge span too.
type CampaignStatusz struct {
	Status
	Obs obs.Snapshot `json:"obs"`
	// PhaseSummary is the human rendering of Obs ("sim 2.4s (63%), ...").
	PhaseSummary string `json:"phase_summary"`
}

// Statusz is the GET /statusz payload: service-wide stats plus every
// retained campaign in admission order with its per-phase breakdown.
type Statusz struct {
	Stats     ServiceStats      `json:"stats"`
	Campaigns []CampaignStatusz `json:"campaigns"`
}

// Statusz snapshots the service: the one status page, over HTTP and in
// mcversid's shutdown log.
func (s *Service) Statusz() Statusz {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.totals
	st.Campaigns, st.Leases = len(s.campaigns), len(s.leases)
	out := Statusz{Campaigns: make([]CampaignStatusz, 0, len(s.order))}
	for _, id := range s.order {
		c := s.campaigns[id]
		switch c.state {
		case StateQueued:
			st.Queued++
		case StateRunning:
			st.Running++
		case StateDone:
			st.Done++
		case StateFailed:
			st.Failed++
		}
		out.Campaigns = append(out.Campaigns, CampaignStatusz{
			Status:       s.statusLocked(c),
			Obs:          c.obs,
			PhaseSummary: c.obs.String(),
		})
	}
	out.Stats = st
	return out
}
