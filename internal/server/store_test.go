package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"servet"
	"servet/internal/regproto"
	"servet/internal/report"
	"servet/internal/server"
)

// storeSample builds a minimal schema-current report for store tests.
func storeSample(fingerprint string, l1 int64) *report.Report {
	return &report.Report{
		Schema:      report.CurrentSchema,
		Machine:     "sample",
		Fingerprint: fingerprint,
		ClockGHz:    2,
		Nodes:       1, CoresPerNode: 2,
		Caches: []report.CacheResult{{Level: 1, SizeBytes: l1, Method: "gradient"}},
		Provenance: []report.ProbeProvenance{
			{Probe: "cache-size", Status: report.ProvenanceRan, OptionsDigest: "d1"},
		},
	}
}

// storeEntry reads and decodes a fingerprint's entry.
func storeEntry(t *testing.T, s report.Store, fp string) *report.Report {
	t.Helper()
	data, err := s.Get(fp)
	if err != nil {
		t.Fatal(err)
	}
	r, err := report.Decode(fp, data)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestMemStoreGetUnknown(t *testing.T) {
	s := server.NewMemStore()
	if _, err := s.Get("sha256:nope"); !errors.Is(err, report.ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
}

func TestMemStorePutValidation(t *testing.T) {
	s := server.NewMemStore()
	if err := s.Put(storeSample("", 16<<10)); err == nil {
		t.Error("fingerprint-less report stored")
	}
	bad := storeSample("sha256:abc", 16<<10)
	bad.Schema = 1
	err := s.Put(bad)
	var se *report.SchemaError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *SchemaError", err)
	}
	if se.Schema != 1 {
		t.Errorf("schema error fields = %+v", se)
	}
	if _, err := s.Get("sha256:abc"); !errors.Is(err, report.ErrNotFound) {
		t.Errorf("rejected report was stored: err = %v", err)
	}
}

// TestMemStoreIsolation: the store must never alias its entries with
// reports callers hold — the same contract as the session caches.
// Entries are the compact JSON Put encoded, never changed afterwards.
func TestMemStoreIsolation(t *testing.T) {
	s := server.NewMemStore()
	orig := storeSample("sha256:abc", 16<<10)
	if err := s.Put(orig); err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	orig.Caches[0].SizeBytes = 1

	got, err := s.Get("sha256:abc")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("entry = %s, want the compact JSON Put saw: %s", got, want)
	}
	decoded := storeEntry(t, s, "sha256:abc")
	decoded.Caches[0].SizeBytes = 2

	listed, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(listed) != 1 || listed[0].Caches[0].SizeBytes != 16<<10 {
		t.Fatalf("store shares state with its callers; it now lists %+v", listed)
	}
}

func TestMemStoreListSorted(t *testing.T) {
	s := server.NewMemStore()
	for _, fp := range []string{"sha256:bb", "sha256:aa", "sha256:cc"} {
		if err := s.Put(storeSample(fp, 16<<10)); err != nil {
			t.Fatal(err)
		}
	}
	listed, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(listed) != 3 {
		t.Fatalf("listed %d", len(listed))
	}
	for i, want := range []string{"sha256:aa", "sha256:bb", "sha256:cc"} {
		if listed[i].Fingerprint != want {
			t.Errorf("listed[%d] = %s, want %s", i, listed[i].Fingerprint, want)
		}
	}
}

func TestDirStoreRoundTrip(t *testing.T) {
	s := server.NewDirStore(t.TempDir() + "/reports")
	if _, err := s.Get("sha256:abc"); !errors.Is(err, report.ErrNotFound) {
		t.Errorf("missing entry: err = %v, want ErrNotFound", err)
	}
	if err := s.Put(storeSample("sha256:abc", 16<<10)); err != nil {
		t.Fatal(err)
	}
	if got := storeEntry(t, s, "sha256:abc"); got.Caches[0].SizeBytes != 16<<10 {
		t.Errorf("round trip lost data: %+v", got)
	}
	listed, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(listed) != 1 || listed[0].Fingerprint != "sha256:abc" {
		t.Errorf("list = %+v", listed)
	}
}

// TestDirStoreSharesDirLayout: the server's directory store and the
// public DirCache write the same files — a registry pointed at a
// sweep's cache directory serves its entries as-is, and the entries
// it stores are plain install-time report files.
func TestDirStoreSharesDirLayout(t *testing.T) {
	path := t.TempDir() + "/reports"
	if err := servet.NewDirCache(path).Store("sha256:abc", storeSample("sha256:abc", 16<<10)); err != nil {
		t.Fatal(err)
	}
	s := server.NewDirStore(path)
	if got := storeEntry(t, s, "sha256:abc"); got.Caches[0].SizeBytes != 16<<10 {
		t.Errorf("entry = %+v", got)
	}
	// And the other direction: a stored entry is a plain report file.
	if err := s.Put(storeSample("sha256:def", 32<<10)); err != nil {
		t.Fatal(err)
	}
	back, err := servet.LoadReport(s.EntryPath("sha256:def"))
	if err != nil {
		t.Fatalf("stored entry is not a report file: %v", err)
	}
	if back.Caches[0].SizeBytes != 32<<10 {
		t.Errorf("entry = %+v", back)
	}
}

// indentedJSON is what an indenting json.Encoder writes for v — the
// registry's JSON response encoding.
func indentedJSON(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// getBody GETs a registry path and returns the 200 body.
func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return body
}

// TestWireBytesAcrossBackends pins the report GET body: the same
// report PUT into a memory-backed and a directory-backed registry
// comes back byte-identical from both — the indented encoding of the
// report — and the directory entry file holds exactly those bytes.
// A hand-edited entry (compact whitespace, reordered keys, an unknown
// field) is served re-encoded canonically, never as its raw file.
func TestWireBytesAcrossBackends(t *testing.T) {
	ses, err := servet.NewSession(servet.Dempsey(), servet.WithQuick())
	if err != nil {
		t.Fatal(err)
	}
	r, err := ses.Run(context.Background(), "cache-size")
	if err != nil {
		t.Fatal(err)
	}
	fp := r.Fingerprint
	want := indentedJSON(t, r)

	dir := server.NewDirStore(t.TempDir())
	bodies := map[string][]byte{}
	for name, store := range map[string]report.Store{"memory": server.NewMemStore(), "directory": dir} {
		ts := httptest.NewServer(server.New(store))
		defer ts.Close()
		resp := putJSON(t, ts.URL+regproto.ReportPath(fp), r)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("%s: PUT status %d", name, resp.StatusCode)
		}
		bodies[name] = getBody(t, ts.URL+regproto.ReportPath(fp))
		if !bytes.Equal(bodies[name], want) {
			t.Errorf("%s: GET body differs from the report's indented encoding:\n%s\nwant:\n%s", name, bodies[name], want)
		}
	}
	if !bytes.Equal(bodies["memory"], bodies["directory"]) {
		t.Error("memory and directory registries serve different bytes")
	}
	file, err := os.ReadFile(dir.EntryPath(fp))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, bodies["directory"]) {
		t.Errorf("entry file differs from the GET body:\n%s", file)
	}

	// Hand-edit the entry: a map re-marshal sorts the keys and drops
	// the indentation; add a field no report has.
	var edited map[string]any
	if err := json.Unmarshal(file, &edited); err != nil {
		t.Fatal(err)
	}
	edited["edited_by"] = "admin"
	raw, err := json.Marshal(edited)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir.EntryPath(fp), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(dir))
	defer ts.Close()
	got := getBody(t, ts.URL+regproto.ReportPath(fp))
	if !bytes.Equal(got, want) {
		t.Errorf("hand-edited entry served as:\n%s\nwant the canonical encoding:\n%s", got, want)
	}
}
