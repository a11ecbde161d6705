package servet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"
	"time"

	"servet/internal/regproto"
	"servet/internal/report"
)

// RemoteCache is a Cache backed by a probe-registry server
// (cmd/servet-server): Lookup fetches the fingerprint's report over
// HTTP, Store publishes the session's merged report back, so every
// node of a cluster with the same hardware fingerprint shares one set
// of install-time measurements.
//
// The cache degrades gracefully when the registry is unreachable:
// Lookup misses (the session measures everything, exactly as with a
// cold local cache) and Store swallows the network error, so offline
// runs still complete — only registry responses that indicate a real
// conflict (a fingerprint or schema mismatch, mirroring FileCache's
// *FingerprintMismatchError) surface as errors.
//
// Reports cross the wire as JSON, so Lookup and Store naturally hand
// out deep copies — a RemoteCache never aliases server state, the
// same contract the local caches honor.
type RemoteCache struct {
	base    string
	client  *http.Client
	skipped atomic.Int64
}

// SkippedStores counts the publishes this cache skipped because the
// registry was unreachable. Callers that want to report "published"
// truthfully (cmd/servet does) check it after a run: a session whose
// Store was swallowed completed fine, but the cluster never saw its
// report.
func (c *RemoteCache) SkippedStores() int64 { return c.skipped.Load() }

// RemoteCacheOption configures a RemoteCache.
type RemoteCacheOption func(*RemoteCache)

// WithHTTPClient replaces the cache's HTTP client (the default has a
// 30 second timeout).
func WithHTTPClient(client *http.Client) RemoteCacheOption {
	return func(c *RemoteCache) { c.client = client }
}

// NewRemoteCache returns a cache talking to the registry server at
// baseURL (e.g. "http://head-node:8077", or with a path prefix when
// the registry sits behind a reverse proxy). The URL is validated
// here, so a malformed one fails session construction instead of
// silently turning every Lookup into a miss.
func NewRemoteCache(baseURL string, opts ...RemoteCacheOption) (*RemoteCache, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("servet: remote cache url: %w", err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("servet: remote cache url %q: scheme must be http or https", baseURL)
	}
	if u.Host == "" {
		return nil, fmt.Errorf("servet: remote cache url %q: missing host", baseURL)
	}
	c := &RemoteCache{
		base:   u.Scheme + "://" + u.Host + strings.TrimRight(u.Path, "/"),
		client: &http.Client{Timeout: 30 * time.Second},
	}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// URL returns the registry base URL the cache talks to.
func (c *RemoteCache) URL() string { return c.base }

// Lookup implements Cache: GET the fingerprint's report from the
// registry. Network failures, non-200 responses and reports that do
// not actually describe the fingerprint are all misses — the session
// then measures locally, which is always safe.
func (c *RemoteCache) Lookup(fingerprint string) (*Report, bool) {
	resp, err := c.client.Get(c.base + regproto.ReportPath(fingerprint))
	if err != nil {
		return nil, false
	}
	// The body is read through the wire limit: an oversized report is
	// a miss, not an unbounded read.
	body := io.LimitReader(resp.Body, regproto.MaxReportBytes)
	defer func() {
		io.Copy(io.Discard, body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return nil, false
	}
	var r Report
	if err := json.NewDecoder(body).Decode(&r); err != nil {
		return nil, false
	}
	if r.Schema != report.CurrentSchema || r.Fingerprint != fingerprint {
		return nil, false
	}
	return &r, true
}

// Store implements Cache: PUT the report to the registry. A network
// failure is swallowed (nil) so sessions finish offline; a 409 from
// the registry surfaces typed — a fingerprint conflict becomes the
// same *FingerprintMismatchError FileCache returns, a schema conflict
// an error naming both versions; any other non-2xx response is an
// error with the server's message.
func (c *RemoteCache) Store(fingerprint string, r *Report) error {
	data, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("servet: remote cache: marshal report: %w", err)
	}
	req, err := http.NewRequest(http.MethodPut, c.base+regproto.ReportPath(fingerprint), bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("servet: remote cache: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		// Unreachable registry: the run still has its report; nodes
		// publish again next time they are online. SkippedStores lets
		// callers surface that the cluster was not updated.
		c.skipped.Add(1)
		return nil
	}
	defer resp.Body.Close()
	body := io.LimitReader(resp.Body, regproto.MaxReportBytes)
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		io.Copy(io.Discard, body)
		return nil
	}
	var e regproto.Error
	if err := json.NewDecoder(body).Decode(&e); err != nil {
		return fmt.Errorf("servet: remote cache: registry %s: status %s", c.base, resp.Status)
	}
	switch e.Code {
	case regproto.CodeFingerprintMismatch:
		return &FingerprintMismatchError{Path: c.base, Have: e.Have, Want: e.Want}
	case regproto.CodeSchemaMismatch:
		// The envelope's message names both sides of the version
		// disagreement (the report's schema and the registry's).
		return fmt.Errorf("servet: remote cache: registry %s: %s", c.base, e.Message)
	default:
		return fmt.Errorf("servet: remote cache: registry %s: %s (%s)", c.base, e.Message, resp.Status)
	}
}
