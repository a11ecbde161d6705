package server_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"testing"

	"servet/internal/regproto"
)

// TestListAndStatsByteStable pins the registry's aggregation
// endpoints to the determinism contract: /v1/reports and /v1/stats
// must serve byte-identical bodies across round trips, and the list
// must come back sorted by fingerprint — store insertion order (and
// the map underneath the in-memory store) must never leak into the wire bytes.
func TestListAndStatsByteStable(t *testing.T) {
	_, ts := newTestRegistry(t)

	// PUT in deliberately unsorted fingerprint order.
	for _, fp := range []string{"sha256:ccc", "sha256:aaa", "sha256:bbb"} {
		resp := putJSON(t, ts.URL+regproto.ReportPath(fp), storeSample(fp, 16<<10))
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("PUT %s status = %d, want 204", fp, resp.StatusCode)
		}
	}

	get := func(path string) []byte {
		t.Helper()
		return getBody(t, ts.URL+path)
	}

	first := get(regproto.ReportsPath)
	second := get(regproto.ReportsPath)
	if !bytes.Equal(first, second) {
		t.Errorf("list bodies differ between round trips:\n%s\n%s", first, second)
	}

	var entries []regproto.Entry
	if err := json.Unmarshal(first, &entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("list has %d entries, want 3", len(entries))
	}
	if !sort.SliceIsSorted(entries, func(i, j int) bool {
		return entries[i].Fingerprint < entries[j].Fingerprint
	}) {
		t.Errorf("list not sorted by fingerprint: %+v", entries)
	}

	stats1 := get(regproto.StatsPath)
	stats2 := get(regproto.StatsPath)
	if !bytes.Equal(stats1, stats2) {
		t.Errorf("stats bodies differ between round trips:\n%s\n%s", stats1, stats2)
	}
}
