package service

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
)

// TestClientSentinels: every service sentinel survives the wire, so a
// remote caller can errors.Is against it — ErrQueueFull and
// ErrTenantBudget included, although both travel as 429.
func TestClientSentinels(t *testing.T) {
	s, err := New(Config{ShardSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	client := NewClient(srv.URL)
	ctx := context.Background()
	spec := testSpec(core.GenRandom, 1, 2, 7, "mesi-tso")

	_, tooLarge := client.Submit(ctx, "a", testSpec(core.GenRandom, maxItems+1, 2, 7, "mesi-tso"))
	var a []string
	for i := 0; i < tenantMaxPending; i++ {
		id, err := client.Submit(ctx, "a", spec)
		if err != nil {
			t.Fatal(err)
		}
		a = append(a, id)
	}
	_, tenantBudget := client.Submit(ctx, "a", spec)
	fillQueue(t, len(a), func(tenant string) (string, error) { return client.Submit(ctx, tenant, spec) })
	_, queueFull := client.Submit(ctx, "b", spec)
	_, notFound := client.Status(ctx, "c99999999")
	_, notReady := client.ResultBytes(ctx, a[0])
	noLease := client.Renew(ctx, "l99999999")

	for _, tc := range []struct {
		err, want error
	}{
		{tooLarge, ErrTooLarge},
		{queueFull, ErrQueueFull},
		{tenantBudget, ErrTenantBudget},
		{notFound, ErrNotFound},
		{notReady, ErrNotReady},
		{noLease, ErrNoLease},
	} {
		if !errors.Is(tc.err, tc.want) {
			t.Errorf("got %v, want errors.Is %v", tc.err, tc.want)
		}
	}
	if errors.Is(queueFull, ErrTenantBudget) || errors.Is(tenantBudget, ErrQueueFull) {
		t.Errorf("429s confused: queue full %v, tenant budget %v", queueFull, tenantBudget)
	}
}
