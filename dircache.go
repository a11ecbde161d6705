package servet

import (
	"servet/internal/report"
)

// DirCache is a multi-entry Cache over a directory of per-fingerprint
// JSON report files: each machine's install-time report lives in its
// own file named after its fingerprint, so one directory serves a
// whole heterogeneous Sweep — unlike FileCache, which holds a single
// machine's report and refuses to store another's. Entries are per
// machine, so a store can never clobber another machine's file.
//
// The layout is shared with the probe-registry server's directory
// store (cmd/servet-server -store): point the server at a sweep's
// cache directory and it serves the entries over HTTP as-is, and
// entries the server stores are directly usable as install-time
// parameter files.
type DirCache struct {
	entryCache
	path string
}

// NewDirCache returns a cache over the directory at path. The
// directory need not exist yet; the first Store creates it. Lookup
// reads the fingerprint's entry file fresh on every call (a missing,
// unreadable, schema-incompatible or mislabeled entry is a miss), and
// Store writes the entry file atomically.
func NewDirCache(path string) *DirCache {
	return &DirCache{entryCache{Entries: report.Dir{Path: path}}, path}
}

// Path returns the backing directory's path.
func (c *DirCache) Path() string { return c.path }
