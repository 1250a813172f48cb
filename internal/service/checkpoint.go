package service

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
)

// serviceCheckpointSchema versions the on-disk campaign format.
const serviceCheckpointSchema = 1

// shardCheckpoint persists one shard: its range always, its result only
// once done. Pending and leased shards round-trip to pending — a lease
// is process-local state, and re-running the range is free correctness.
type shardCheckpoint struct {
	Range  fleet.Range        `json:"range"`
	Result *fleet.ShardResult `json:"result,omitempty"`
}

// checkpointFile is one campaign's durable state.
type checkpointFile struct {
	Schema    int               `json:"schema"`
	ID        string            `json:"id"`
	Tenant    string            `json:"tenant"`
	State     CampaignState     `json:"state"`
	Err       string            `json:"error,omitempty"`
	Spec      core.Spec         `json:"spec"`
	Submitted time.Time         `json:"submitted"`
	Finished  time.Time         `json:"finished"`
	Shards    []shardCheckpoint `json:"shards"`
}

// checkpointLocked persists a campaign's durable state through
// writeDurable. A no-op without a CheckpointDir. Write
// failures are recorded in c.ckErr — surfaced on Status as a durability
// degradation, never as the campaign failure reason (errMsg stays the
// semantic failure cause, and what's persisted as Err) — and a later
// successful checkpoint clears the stale error.
func (s *Service) checkpointLocked(c *campaign) {
	if s.cfg.CheckpointDir == "" {
		return
	}
	// A campaign evicted by the retention cap (possible between a
	// terminal transition and the caller's trailing checkpoint) must not
	// have its deleted file resurrected.
	if s.campaigns[c.id] != c {
		return
	}
	ck := checkpointFile{
		Schema: serviceCheckpointSchema,
		ID:     c.id, Tenant: c.tenant,
		State: c.state, Err: c.errMsg, Spec: c.spec,
		Submitted: c.submitted, Finished: c.finished,
	}
	for _, sh := range c.shards {
		sc := shardCheckpoint{Range: sh.rng}
		if sh.phase == shardDone {
			sc.Result = sh.result
		}
		ck.Shards = append(ck.Shards, sc)
	}
	data, err := json.Marshal(ck)
	if err != nil {
		c.ckErr = fmt.Sprintf("checkpoint: %v", err)
		return
	}
	if err := writeDurable(filepath.Join(s.cfg.CheckpointDir, c.id+".json"), data); err != nil {
		c.ckErr = fmt.Sprintf("checkpoint: %v", err)
		return
	}
	c.ckErr = ""
}

// writeDurable replaces path with data so that a crash leaves the old
// file or the new one, never a torn one that would make New refuse the
// whole directory: the bytes go to path.tmp, which is synced before
// the rename, and the directory is synced after it. path.tmp is
// removed when any step fails.
func writeDurable(path string, data []byte) (err error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			_ = os.Remove(tmp)
		}
	}()
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	err = dir.Sync()
	if cerr := dir.Close(); err == nil {
		err = cerr
	}
	return err
}

// removeCheckpointLocked deletes an evicted campaign's checkpoint file.
func (s *Service) removeCheckpointLocked(c *campaign) {
	if s.cfg.CheckpointDir == "" {
		return
	}
	_ = os.Remove(filepath.Join(s.cfg.CheckpointDir, c.id+".json"))
}

// loadCheckpoints recovers campaigns written by a previous incarnation.
// Terminal campaigns come back as-is (done results re-merged from their
// persisted shard results, so ResultBytes keeps serving identical
// bytes); queued and running campaigns re-enter the queue with their
// completed shards retained — only the in-flight leased ranges are
// re-run, and determinism makes the re-run invisible in the output.
func (s *Service) loadCheckpoints() error {
	dir := s.cfg.CheckpointDir
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("service: checkpoint dir: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("service: checkpoint dir: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			names = append(names, e.Name())
		}
	}
	// IDs are zero-padded ("c%08d"), so lexical order is admission order.
	sort.Strings(names)

	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return fmt.Errorf("service: checkpoint %s: %w", name, err)
		}
		c, err := s.restoreLocked(data)
		if err != nil {
			return fmt.Errorf("service: checkpoint %s: %w", name, err)
		}
		var seq int64
		if _, err := fmt.Sscanf(c.id, "c%d", &seq); err == nil && seq > s.seq {
			s.seq = seq
		}
	}
	s.promoteLocked()
	// A campaign that had every shard done but died before the merge (or
	// was mid-Complete) finishes now. finishLocked can prune terminal
	// campaigns out of s.order, so iterate over a snapshot.
	for _, id := range append([]string(nil), s.order...) {
		c, ok := s.campaigns[id]
		if !ok {
			continue
		}
		if c.state == StateRunning && c.itemsDone == c.spec.Items() {
			s.finishLocked(c)
			s.checkpointLocked(c)
		}
	}
	// Recovered terminal campaigns respect the retention cap too.
	s.pruneTerminalLocked()
	return nil
}

// restoreLocked rebuilds one campaign from its checkpoint bytes.
func (s *Service) restoreLocked(data []byte) (*campaign, error) {
	var ck checkpointFile
	if err := json.Unmarshal(data, &ck); err != nil {
		return nil, err
	}
	if ck.Schema != serviceCheckpointSchema {
		return nil, fmt.Errorf("unsupported schema %d", ck.Schema)
	}
	if ck.ID == "" {
		return nil, fmt.Errorf("missing campaign id")
	}
	if err := ck.Spec.Validate(); err != nil {
		return nil, err
	}
	if _, dup := s.campaigns[ck.ID]; dup {
		return nil, fmt.Errorf("duplicate campaign id %s", ck.ID)
	}
	c := &campaign{
		id: ck.ID, tenant: ck.Tenant, spec: ck.Spec,
		errMsg:    ck.Err,
		submitted: ck.Submitted, finished: ck.Finished,
	}
	items := ck.Spec.Items()
	covered := 0
	for _, sc := range ck.Shards {
		if sc.Range.Len() <= 0 || sc.Range.Start < 0 || sc.Range.End > items {
			return nil, fmt.Errorf("shard range %s outside campaign items %d", sc.Range, items)
		}
		covered += sc.Range.Len()
		sh := &shard{rng: sc.Range}
		if sc.Result != nil {
			if sc.Result.Range != sc.Range || len(sc.Result.Results) != sc.Range.Len() {
				return nil, fmt.Errorf("shard result does not match range %s", sc.Range)
			}
			res := *sc.Result
			sh.phase = shardDone
			sh.result = &res
			c.itemsDone += sc.Range.Len()
			for _, r := range res.Results {
				c.testRuns += r.TestRuns
				if r.Found {
					c.found++
				}
			}
		}
		c.shards = append(c.shards, sh)
	}
	if covered != items {
		return nil, fmt.Errorf("shards cover %d of %d items", covered, items)
	}

	switch ck.State {
	case StateFailed:
		c.state = StateFailed
		s.emitLocked(c, Event{Type: EventFailed, Err: c.errMsg})
	case StateDone:
		shards := make([]fleet.ShardResult, 0, len(c.shards))
		for _, sh := range c.shards {
			if sh.result == nil {
				return nil, fmt.Errorf("done campaign with unfinished shard %s", sh.rng)
			}
			shards = append(shards, *sh.result)
		}
		merged, err := fleet.MergeShards(items, shards)
		if err != nil {
			return nil, fmt.Errorf("re-merge: %w", err)
		}
		bytes, err := merged.CanonicalBytes()
		if err != nil {
			return nil, err
		}
		c.merged = &merged
		c.mergedBytes = bytes
		c.state = StateDone
		s.emitLocked(c, Event{
			Type: EventDone, Items: merged.Stats.Items,
			ItemsDone: merged.Stats.Items, TestRuns: merged.Stats.TestRuns,
		})
	case StateQueued, StateRunning:
		// Back into the queue; promoteLocked (run by the caller once all
		// files load) re-starts them in admission order.
		c.state = StateQueued
		s.tenants[c.tenant]++
		s.emitLocked(c, Event{Type: EventQueued, Items: items})
	default:
		return nil, fmt.Errorf("unknown state %q", ck.State)
	}
	s.campaigns[c.id] = c
	s.order = append(s.order, c.id)
	return c, nil
}
