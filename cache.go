package servet

import (
	"sync"

	"servet/internal/report"
)

// Cache stores probe results between sessions, keyed by machine
// fingerprint. The stored value is a full Report whose Provenance
// records which probes produced which sections under which options —
// that is all a Session needs to decide, probe by probe, whether a
// saved section is still fresh or must be re-measured.
//
// Implementations must be safe for concurrent use: Sweep fans many
// sessions over one cache.
type Cache interface {
	// Lookup returns the saved report for a machine fingerprint, or
	// ok=false on a miss. A corrupt or unreadable entry is a miss, not
	// an error: the session then simply measures everything. The
	// returned report is owned by the caller: implementations decode
	// a fresh one from the stored entry (or otherwise hand out a
	// private copy), never a pointer shared with the cache, so no
	// caller mutation can corrupt the cache.
	Lookup(fingerprint string) (r *Report, ok bool)
	// Store saves the report (which carries the fingerprint, schema and
	// provenance) as the new cache entry for the fingerprint. A report
	// whose own fingerprint differs from the key must never be served
	// for that key: the fingerprint-keyed caches refuse it with a
	// *FingerprintMismatchError.
	Store(fingerprint string, r *Report) error
}

// entryCache is the one Cache over the report store's entries:
// Lookup decodes a fresh report from the entry's bytes, Store encodes
// the report once and refuses a key that is not its fingerprint.
// MemoryCache and DirCache embed it for their Lookup and Store.
type entryCache = report.Cache

// MemoryCache is an in-process Cache holding one report per machine
// fingerprint as its compact JSON: Store encodes the report once,
// Lookup decodes a fresh report from bytes that never change. The
// zero value is not usable; call NewMemoryCache.
type MemoryCache struct{ entryCache }

// NewMemoryCache returns an empty in-memory cache.
func NewMemoryCache() *MemoryCache {
	return &MemoryCache{entryCache{Entries: report.NewMem()}}
}

// FileCache is a Cache backed by one install-time JSON report file —
// the paper's parameter file doubling as an incremental probe cache.
// It holds the report of a single machine: Lookup for a different
// fingerprint is a miss, and Store refuses (with a
// *FingerprintMismatchError) to replace a readable entry belonging to
// a different machine. Point each machine's session at its own path
// (or share a MemoryCache) when sweeping several models.
type FileCache struct {
	mu   sync.Mutex
	path string
}

// NewFileCache returns a cache backed by the report file at path. The
// file need not exist yet; the first Store creates it.
func NewFileCache(path string) *FileCache {
	return &FileCache{path: path}
}

// Path returns the backing file's path.
func (c *FileCache) Path() string { return c.path }

// Lookup implements Cache: it reads the file fresh on every call. A
// missing file, an unreadable or schema-incompatible one, or a report
// for another machine are all misses.
func (c *FileCache) Lookup(fingerprint string) (*Report, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, err := report.Load(c.path)
	if err != nil || r.Fingerprint != fingerprint {
		return nil, false
	}
	return r, true
}

// Store implements Cache, overwriting the backing file — unless the
// file currently holds another machine's report, in which case Store
// fails with a *FingerprintMismatchError instead of clobbering that
// machine's install-time file (the shared-cache Sweep footgun). A
// missing, unreadable or fingerprint-less file is not another
// machine's entry and is overwritten.
func (c *FileCache) Store(fingerprint string, r *Report) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, err := report.Load(c.path); err == nil &&
		cur.Fingerprint != "" && cur.Fingerprint != fingerprint {
		return &FingerprintMismatchError{Path: c.path, Have: cur.Fingerprint, Want: fingerprint}
	}
	return r.Save(c.path)
}

// FingerprintMismatchError reports a Cache.Store refused because it
// would file one machine's report under another machine's key: the
// report's fingerprint disagrees with the key (MemoryCache, DirCache),
// or the FileCache file already holds another machine's report —
// typically several machine models pointed at one WithCacheFile path;
// give each model its own file, or share a fingerprint-keyed cache
// (e.g. MemoryCache) instead.
type FingerprintMismatchError = report.FingerprintMismatchError
