package service

import (
	"repro/internal/core"
	"repro/internal/fleet"
)

// Event types in a campaign's progress log.
const (
	EventQueued  = "queued"
	EventStarted = "started"
	EventLeased  = "leased"
	EventExpired = "expired"
	EventSample  = "sample"
	EventShard   = "shard"
	EventDone    = "done"
	EventFailed  = "failed"
)

// Event is one campaign progress report. Sample events carry one
// item's final core.Result — the same payload a local fleet's Done
// events carry, which is what lets cmd/mcversi reuse its -progress
// rendering on a remote campaign.
type Event struct {
	Type     string `json:"type"`
	Campaign string `json:"campaign"`
	// Sample/Scenario/Result describe one completed item (sample
	// events only). Sample is the item's global flat index.
	Sample   int          `json:"sample,omitempty"`
	Scenario string       `json:"scenario,omitempty"`
	Result   *core.Result `json:"result,omitempty"`
	// Shard/Worker describe lease activity.
	Shard  *fleet.Range `json:"shard,omitempty"`
	Worker string       `json:"worker,omitempty"`
	// Progress counters (shard/done events).
	Items     int `json:"items,omitempty"`
	ItemsDone int `json:"items_done,omitempty"`
	TestRuns  int `json:"test_runs,omitempty"`
	// Err carries the failure reason (failed events).
	Err string `json:"error,omitempty"`
}

// Terminal reports whether the event ends its campaign's log.
func (e Event) Terminal() bool { return e.Type == EventDone || e.Type == EventFailed }

// emitLocked appends an event to the campaign's log.
func (s *Service) emitLocked(c *campaign, ev Event) {
	ev.Campaign = c.id
	c.events = append(c.events, ev)
}

// EventPage is one pull of a campaign's progress log: the events from
// the requested offset on, and the campaign's state when they were read.
type EventPage struct {
	Events []Event       `json:"events"`
	State  CampaignState `json:"state"`
}

// Events returns the campaign's log from index from on. A reader that
// asks again from its offset plus what it was given sees every event
// exactly once, however slowly it reads; the log ends with a terminal
// event once the campaign is done or failed.
func (s *Service) Events(id string, from int) (EventPage, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.campaigns[id]
	if !ok {
		return EventPage{}, ErrNotFound
	}
	from = min(max(from, 0), len(c.events))
	return EventPage{Events: append([]Event(nil), c.events[from:]...), State: c.state}, nil
}

// Lease is one claimed seed-range: everything a worker needs to run
// the shard and nothing process-local — the spec travels with it, so
// workers hold no per-campaign state between leases.
type Lease struct {
	ID        string      `json:"id"`
	Campaign  string      `json:"campaign"`
	Spec      core.Spec   `json:"spec"`
	Range     fleet.Range `json:"range"`
	TTLMillis int64       `json:"ttl_ms"`
}
