package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
)

// Client talks to a remote mcversid. It implements Source, so the same
// RunWorker loop drives embedded and remote workers, and carries the
// submit/status/result/events calls cmd/mcversi -remote uses.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient builds a client for the given base URL (e.g.
// "http://127.0.0.1:8433").
func NewClient(base string) *Client {
	return &Client{
		base: strings.TrimRight(base, "/"),
		hc:   &http.Client{},
	}
}

// do issues a request and decodes the error body on non-2xx statuses,
// restoring the sentinel errors the server mapped onto HTTP codes.
func (c *Client) do(ctx context.Context, method, path string, body any) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 400 {
		defer resp.Body.Close()
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		if sent := sentinelFor(resp.StatusCode); sent != nil {
			return nil, fmt.Errorf("%w (%s)", sent, e.Error)
		}
		return nil, fmt.Errorf("service: %s %s: %s (%s)", method, path, resp.Status, e.Error)
	}
	return resp, nil
}

// sentinelFor inverts statusFor so callers can errors.Is against the
// service sentinels across the wire.
func sentinelFor(status int) error {
	switch status {
	case http.StatusNotFound:
		return ErrNotFound
	case http.StatusRequestEntityTooLarge:
		return ErrTooLarge
	case http.StatusConflict:
		return ErrNotReady
	case http.StatusGone:
		return ErrNoLease
	default:
		return nil
	}
}

// Submit sends a campaign spec and returns the assigned campaign ID.
func (c *Client) Submit(ctx context.Context, tenant string, spec core.Spec) (string, error) {
	data, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/campaigns", bytes.NewReader(data))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return "", fmt.Errorf("service: submit: %s (%s)", resp.Status, e.Error)
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return "", err
	}
	return out.ID, nil
}

// Status fetches a campaign's status.
func (c *Client) Status(ctx context.Context, id string) (Status, error) {
	resp, err := c.do(ctx, http.MethodGet, "/v1/campaigns/"+id, nil)
	if err != nil {
		return Status{}, err
	}
	defer resp.Body.Close()
	var st Status
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// ResultBytes fetches a finished campaign's canonical merged output
// verbatim — the bytes the byte-identity guarantee is stated about.
func (c *Client) ResultBytes(ctx context.Context, id string) ([]byte, error) {
	resp, err := c.do(ctx, http.MethodGet, "/v1/campaigns/"+id+"/result", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// Events streams a campaign's SSE feed, invoking fn per event until the
// stream ends (terminal event), fn returns false, or ctx is cancelled.
func (c *Client) Events(ctx context.Context, id string, fn func(Event) bool) error {
	resp, err := c.do(ctx, http.MethodGet, "/v1/campaigns/"+id+"/events", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			return fmt.Errorf("service: bad event payload: %w", err)
		}
		if !fn(ev) || ev.Terminal() {
			return nil
		}
	}
	if err := sc.Err(); err != nil && ctx.Err() == nil {
		return err
	}
	return nil
}

// WaitDone polls until the campaign reaches a terminal state and
// returns the final status (an error only for transport failures or a
// failed campaign).
func (c *Client) WaitDone(ctx context.Context, id string, poll time.Duration) (Status, error) {
	if poll <= 0 {
		poll = 100 * time.Millisecond
	}
	for {
		st, err := c.Status(ctx, id)
		if err != nil {
			return st, err
		}
		switch st.State {
		case StateDone:
			return st, nil
		case StateFailed:
			return st, fmt.Errorf("service: campaign failed: %s", st.Err)
		}
		if !sleepCtx(ctx, poll) {
			return st, ctx.Err()
		}
	}
}

// Source implementation — the remote worker's claim loop.

// Claim asks for a lease; nil means no pending work.
func (c *Client) Claim(ctx context.Context, worker string) (*Lease, error) {
	resp, err := c.do(ctx, http.MethodPost, "/v1/leases", map[string]string{"worker": worker})
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNoContent {
		return nil, nil
	}
	var l Lease
	if err := json.NewDecoder(resp.Body).Decode(&l); err != nil {
		return nil, err
	}
	return &l, nil
}

// Renew heartbeats a lease.
func (c *Client) Renew(ctx context.Context, leaseID string) error {
	resp, err := c.do(ctx, http.MethodPost, "/v1/leases/"+leaseID+"/renew", nil)
	if err != nil {
		return err
	}
	resp.Body.Close()
	return nil
}

// Complete reports a finished shard.
func (c *Client) Complete(ctx context.Context, leaseID string, sr fleet.ShardResult) error {
	resp, err := c.do(ctx, http.MethodPost, "/v1/leases/"+leaseID+"/complete", sr)
	if err != nil {
		return err
	}
	resp.Body.Close()
	return nil
}

// Fail reports a shard error.
func (c *Client) Fail(ctx context.Context, leaseID, reason string) error {
	resp, err := c.do(ctx, http.MethodPost, "/v1/leases/"+leaseID+"/fail", map[string]string{"reason": reason})
	if err != nil {
		return err
	}
	resp.Body.Close()
	return nil
}
