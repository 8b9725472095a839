package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// TestServerAutoPlan covers the adaptive default: a query with no
// system parameter is planned, the decision summary travels in the
// X-Graphserve-Plan header (never the body), an identical repeat
// reuses both the pinned decision and the result cache, and /metrics
// exposes the planner block.
func TestServerAutoPlan(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 2, MaxQueue: 4})

	const path = "/v1/pagerank?k=3"
	code, hdr, body := get(t, ts.URL+path)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	plan := hdr.Get("X-Graphserve-Plan")
	if plan == "" {
		t.Fatal("auto query answered without an X-Graphserve-Plan header")
	}
	for _, field := range []string{"system=", "shards=", "plan=", "dir=", "tier=", "score="} {
		if !strings.Contains(plan, field) {
			t.Errorf("plan summary %q missing %s", plan, field)
		}
	}
	if strings.Contains(string(body), "\"plan\"") {
		t.Fatalf("decision leaked into the response body: %s", body)
	}

	// A pinned system must not get a plan header: nothing was planned.
	_, pinnedHdr, _ := get(t, ts.URL+path+"&system=giraph")
	if got := pinnedHdr.Get("X-Graphserve-Plan"); got != "" {
		t.Fatalf("pinned query carries a plan header: %q", got)
	}

	// The repeat is decision-stable (sticky planner) and cache-warm.
	code, hdr2, body2 := get(t, ts.URL+path)
	if code != http.StatusOK {
		t.Fatalf("repeat status %d", code)
	}
	if got := hdr2.Get("X-Graphserve-Plan"); got != plan {
		t.Fatalf("repeat re-planned: %q then %q", plan, got)
	}
	if got := hdr2.Get("X-Graphserve-Cache"); got != "hit" {
		t.Fatalf("repeat cache %q, want hit", got)
	}
	if string(body2) != string(body) {
		t.Fatal("repeat body differs")
	}

	var m metricsBody
	_, _, mb := get(t, ts.URL+"/metrics")
	if err := json.Unmarshal(mb, &m); err != nil {
		t.Fatal(err)
	}
	if m.Planner == nil {
		t.Fatal("/metrics has no planner block after auto queries")
	}
	if m.Planner.DecisionsTotal < 2 {
		t.Fatalf("decisions_total = %d, want >= 2", m.Planner.DecisionsTotal)
	}
	found := false
	for _, summary := range m.Planner.Decisions {
		if summary == plan {
			found = true
		}
	}
	if !found {
		t.Fatalf("served decision %q not in /metrics decisions %v", plan, m.Planner.Decisions)
	}
	_ = s
}

// TestPlannedRunSharesPinnedCacheEntry: a planned run executes on its
// admission slot's pool exactly like a pinned run of the same system,
// so system=auto and a pinned request for the system the planner chose
// are one cache entry — the second is a hit with the identical body,
// not a second computation of the same bits.
func TestPlannedRunSharesPinnedCacheEntry(t *testing.T) {
	// Slot pools three wide: the planner suggests one shard for a fixture
	// this small, so a key built from its suggestion would differ.
	_, ts := newTestServer(t, Config{MaxInFlight: 2, MaxQueue: 4, Shards: 3})

	const path = "/v1/wcc?vertex=3"
	code, hdr, body := get(t, ts.URL+path)
	if code != http.StatusOK {
		t.Fatalf("auto status %d: %s", code, body)
	}
	_, rest, ok := strings.Cut(hdr.Get("X-Graphserve-Plan"), "system=")
	if !ok {
		t.Fatalf("plan header %q names no system", hdr.Get("X-Graphserve-Plan"))
	}
	chosen, _, _ := strings.Cut(rest, " ")

	code, pinnedHdr, pinnedBody := get(t, ts.URL+path+"&system="+chosen)
	if code != http.StatusOK {
		t.Fatalf("pinned %s status %d: %s", chosen, code, pinnedBody)
	}
	if got := pinnedHdr.Get("X-Graphserve-Cache"); got != "hit" {
		t.Fatalf("pinned %s after auto: cache %q, want hit", chosen, got)
	}
	if string(pinnedBody) != string(body) {
		t.Fatalf("pinned body differs from planned body:\n%s\n%s", pinnedBody, body)
	}
}
