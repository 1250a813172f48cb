// Package service is an in-process campaign queue behind an HTTP/JSON
// API, with admission control (queue depth, per-tenant budgets), a
// seed-range lease manager, and a shard-result merger. It has no
// daemon or command of its own: it is what the benchmark's
// service-loopback workload measures, and it goes when that workload
// is replaced by one that times static shards and their merge
// (cmd/mcversi -shard and -merge, the one way to spread a campaign set
// across processes).
//
// A submitted campaign is a serializable core.Spec — a scenario list ×
// sample count whose items each have a spec-derived seed. The service
// plans the items into contiguous fleet.Range shards and leases them to
// workers: the embedded pool (Service.StartWorkers) and/or RunWorker
// loops claiming over HTTP. Workers run shards through fleet.RunShard
// and report fleet.ShardResult; the service merges them with
// fleet.MergeShards.
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
)

// Config tunes the service. The admission, lease and retention limits
// are the constants below, not options.
type Config struct {
	// ShardSize is the lease granularity in items (0 = 4).
	ShardSize int
	// FleetWorkers is the intra-shard worker count used by the
	// embedded pool (0 = all cores). Results never depend on it.
	FleetWorkers int
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
	// the service keeps; beyond it the oldest are evicted — merged
	// bytes included — and their IDs return ErrNotFound. Without a cap
	// a long-lived service's memory and per-request scan cost grow
	// without bound.
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
	mergedBytes                []byte
	errMsg                     string

	submitted, finished time.Time
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

	mu        sync.Mutex
	campaigns map[string]*campaign
	order     []string // admission order; scheduling scans it FIFO
	leases    map[string]*leaseRef
	tenants   map[string]int // queued+running per tenant
	active    int
	seq       int64
	leaseSeq  int64
}

// New builds an empty service. It cannot fail; the error result keeps
// the benchmark's call site unchanged.
func New(cfg Config) (*Service, error) {
	return &Service{
		cfg:       cfg.withDefaults(),
		campaigns: map[string]*campaign{},
		leases:    map[string]*leaseRef{},
		tenants:   map[string]int{},
	}, nil
}

// Submit admits a campaign: validation, size cap, queue depth and
// tenant budget, in that order. It returns the campaign ID.
func (s *Service) Submit(tenant string, spec core.Spec) (string, error) {
	if tenant == "" {
		tenant = "default"
	}
	if err := spec.Validate(); err != nil {
		return "", err
	}
	items := spec.Items()

	s.mu.Lock()
	defer s.mu.Unlock()
	if items > maxItems {
		return "", fmt.Errorf("%w: %d items > cap %d", ErrTooLarge, items, maxItems)
	}
	queued := 0
	for _, id := range s.order {
		if s.campaigns[id].state == StateQueued {
			queued++
		}
	}
	if queued >= maxQueued {
		return "", fmt.Errorf("%w: %d campaigns queued", ErrQueueFull, queued)
	}
	if s.tenants[tenant] >= tenantMaxPending {
		return "", fmt.Errorf("%w: tenant %q has %d campaigns pending", ErrTenantBudget, tenant, s.tenants[tenant])
	}
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
	s.promoteLocked()
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
		s.active++
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

	c.itemsDone += sh.rng.Len()
	for _, r := range sr.Results {
		c.testRuns += r.TestRuns
		if r.Found {
			c.found++
		}
	}
	if c.itemsDone == c.spec.Items() {
		s.finishLocked(c)
	}
	return nil
}

// Fail reports a shard run error. The range goes back to pending for
// re-issue; a shard exceeding maxAttempts fails the whole campaign.
func (s *Service) Fail(leaseID, reason string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ref, ok := s.leases[leaseID]
	if !ok {
		return ErrNoLease
	}
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
	return nil
}

// finishLocked merges a fully-sharded campaign and publishes its
// terminal state.
func (s *Service) finishLocked(c *campaign) {
	shards := make([]fleet.ShardResult, 0, len(c.shards))
	for _, sh := range c.shards {
		shards = append(shards, *sh.result)
	}
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
	c.mergedBytes = bytes
	c.state = StateDone
	c.finished = s.cfg.Now()
	s.active--
	s.tenants[c.tenant]--
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
	s.promoteLocked()
	s.pruneTerminalLocked()
}

// pruneTerminalLocked enforces the terminal-campaign retention cap:
// when more than retainTerminal campaigns are done/failed, the oldest
// (by admission order) are evicted — dropped from memory along with
// their merged bytes. Queued and running campaigns are never touched,
// so the admission scans over s.order stay bounded by
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
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// expireLocked reclaims leases past their TTL, so their ranges are
// re-issued.
func (s *Service) expireLocked(now time.Time) {
	for id, ref := range s.leases {
		if ref.shard.phase == shardLeased && now.After(ref.shard.expiry) {
			delete(s.leases, id)
			ref.shard.phase = shardPending
			ref.shard.leaseID, ref.shard.worker = "", ""
		}
	}
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
	Submitted time.Time     `json:"submitted"`
	Finished  time.Time     `json:"finished"`
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
		Err:       c.errMsg,
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
