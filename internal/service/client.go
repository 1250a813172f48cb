package service

import (
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

// Client talks to a Service over HTTP. It implements Source, so the
// same RunWorker loop drives embedded and remote workers, and carries
// the submit/status/result calls of a submitter.
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

// do issues a request, with an X-Tenant header when tenant is set, and
// turns an error status into an error, restoring the sentinel its body
// names.
func (c *Client) do(ctx context.Context, method, path, tenant string, body any) (*http.Response, error) {
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
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
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
		if err := sentinelFor(e.Error); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("service: %s %s: %s (%s)", method, path, resp.Status, e.Error)
	}
	return resp, nil
}

// sentinels are the errors a server message can be matched back to.
var sentinels = []error{ErrNotFound, ErrQueueFull, ErrTenantBudget, ErrTooLarge, ErrNotReady, ErrNoLease}

// sentinelFor restores the service sentinel a server error message
// starts with, so callers can errors.Is against it across the wire. The
// message, not the status, names it: ErrQueueFull and ErrTenantBudget
// share 429.
func sentinelFor(msg string) error {
	for _, sent := range sentinels {
		if rest, ok := strings.CutPrefix(msg, sent.Error()); ok {
			return fmt.Errorf("%w%s", sent, rest)
		}
	}
	return nil
}

// Submit sends a campaign spec and returns the assigned campaign ID.
func (c *Client) Submit(ctx context.Context, tenant string, spec core.Spec) (string, error) {
	resp, err := c.do(ctx, http.MethodPost, "/v1/campaigns", tenant, spec)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
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
	resp, err := c.do(ctx, http.MethodGet, "/v1/campaigns/"+id, "", nil)
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
	resp, err := c.do(ctx, http.MethodGet, "/v1/campaigns/"+id+"/result", "", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
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
	resp, err := c.do(ctx, http.MethodPost, "/v1/leases", "", map[string]string{"worker": worker})
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
	resp, err := c.do(ctx, http.MethodPost, "/v1/leases/"+leaseID+"/renew", "", nil)
	if err != nil {
		return err
	}
	resp.Body.Close()
	return nil
}

// Complete reports a finished shard.
func (c *Client) Complete(ctx context.Context, leaseID string, sr fleet.ShardResult) error {
	resp, err := c.do(ctx, http.MethodPost, "/v1/leases/"+leaseID+"/complete", "", sr)
	if err != nil {
		return err
	}
	resp.Body.Close()
	return nil
}

// Fail reports a shard error.
func (c *Client) Fail(ctx context.Context, leaseID, reason string) error {
	resp, err := c.do(ctx, http.MethodPost, "/v1/leases/"+leaseID+"/fail", "", map[string]string{"reason": reason})
	if err != nil {
		return err
	}
	resp.Body.Close()
	return nil
}
