package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"graphbench/internal/par"
)

// TestSlotArenasFollowTheMessagePlane drives cold runs through a server
// at the message-plane bench scale (twitter / Scale 2000, where a slot's
// arena is about 27 MB) and pins the two host costs that must not
// follow the request: what a slot retains once idle, and what a large
// machines= value allocates.
func TestSlotArenasFollowTheMessagePlane(t *testing.T) {
	if par.RaceEnabled {
		t.Skip("heap and allocation readings are not meaningful under the race detector")
	}
	s, _ := newTestServer(t, Config{Scale: 2000, MaxInFlight: 1, Shards: 1})
	request := func(path string) map[string]any {
		t.Helper()
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK || rec.Header().Get("X-Graphserve-Cache") != "miss" {
			t.Fatalf("%s: status %d, cache %q: %s", path, rec.Code, rec.Header().Get("X-Graphserve-Cache"), rec.Body)
		}
		var body map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatal(err)
		}
		return body
	}
	settled := func() runtime.MemStats {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms
	}

	// Idle slots shed their arenas: this is what keeps a server that
	// only answers cache hits as small as one that never ran an engine.
	// The runs are pinned to a BSP engine; planned PageRank is GraphLab's
	// here.
	before := settled()
	for m := 16; m < 19; m++ {
		request(fmt.Sprintf("/v1/wcc?vertex=3&system=blogel-v&machines=%d", m))
	}
	after := settled()
	if grown := int64(after.HeapInuse) - int64(before.HeapInuse); grown > 8<<20 {
		t.Errorf("three cold runs left %d bytes of heap in use after two collections, budget 8 MiB", grown)
	}

	// machines= sizes the modeled cluster, not host memory: the combiner
	// this replaced kept 8 bytes per (machine, vertex), 682 MB here.
	body := request("/v1/sssp?vertex=3&system=giraph&machines=4096")
	if body["status"] != "OK" {
		t.Errorf("giraph sssp on 4096 machines: status %v, want the modeled OK", body["status"])
	}
	got := settled().TotalAlloc - after.TotalAlloc
	t.Logf("the 4096-machine request allocated %.1f MB", float64(got)/1e6)
	if got > 64<<20 {
		t.Errorf("the 4096-machine request allocated %d bytes, budget 64 MiB", got)
	}
}
