package servet_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"servet"
)

// sampleReport builds a minimal schema-current report for cache tests.
func sampleReport(fingerprint string, l1 int64) *servet.Report {
	return &servet.Report{
		Schema:      2,
		Machine:     "sample",
		Fingerprint: fingerprint,
		ClockGHz:    2,
		Nodes:       1, CoresPerNode: 2,
		Caches: []servet.CacheResult{{Level: 1, SizeBytes: l1, Method: "gradient"}},
	}
}

// TestMemoryCacheLookupIsolated is the aliasing regression test:
// mutating a report returned by Lookup (or the one passed to Store)
// must not reach the cached entry.
func TestMemoryCacheLookupIsolated(t *testing.T) {
	cache := servet.NewMemoryCache()
	orig := sampleReport("sha256:abc", 16<<10)
	if err := cache.Store("sha256:abc", orig); err != nil {
		t.Fatal(err)
	}

	// Mutating the stored-from report must not reach the cache.
	orig.Caches[0].SizeBytes = 1

	got, ok := cache.Lookup("sha256:abc")
	if !ok {
		t.Fatal("entry missing")
	}
	if got.Caches[0].SizeBytes != 16<<10 {
		t.Fatalf("Store aliased the caller's report: L1 = %d", got.Caches[0].SizeBytes)
	}

	// Mutating the looked-up report must not corrupt the entry either.
	got.Caches[0].SizeBytes = 2
	got.Caches = append(got.Caches, servet.CacheResult{Level: 2, SizeBytes: 1 << 20})

	again, ok := cache.Lookup("sha256:abc")
	if !ok {
		t.Fatal("entry lost")
	}
	if len(again.Caches) != 1 || again.Caches[0].SizeBytes != 16<<10 {
		t.Fatalf("Lookup handed out a shared report; cache now holds %+v", again.Caches)
	}
}

func TestMemoryCacheMiss(t *testing.T) {
	cache := servet.NewMemoryCache()
	if r, ok := cache.Lookup("sha256:nope"); ok || r != nil {
		t.Errorf("phantom entry: %v, %v", r, ok)
	}
}

// TestFileCacheStoreFingerprintMismatch: a Store that would replace a
// different machine's install-time file fails typed instead of
// clobbering it.
func TestFileCacheStoreFingerprintMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "servet.json")
	cache := servet.NewFileCache(path)

	first := sampleReport("sha256:machine-a", 16<<10)
	if err := cache.Store("sha256:machine-a", first); err != nil {
		t.Fatal(err)
	}

	err := cache.Store("sha256:machine-b", sampleReport("sha256:machine-b", 32<<10))
	var fe *servet.FingerprintMismatchError
	if !errors.As(err, &fe) {
		t.Fatalf("err = %v, want *FingerprintMismatchError", err)
	}
	if fe.Path != path || fe.Have != "sha256:machine-a" || fe.Want != "sha256:machine-b" {
		t.Errorf("error fields = %+v", fe)
	}

	// The original machine's entry survived the refused overwrite.
	back, ok := cache.Lookup("sha256:machine-a")
	if !ok || back.Caches[0].SizeBytes != 16<<10 {
		t.Fatalf("machine A's file was damaged: %+v ok=%v", back, ok)
	}

	// Same machine: overwriting its own entry stays allowed.
	update := sampleReport("sha256:machine-a", 16<<10)
	update.Caches[0].Method = "probabilistic"
	if err := cache.Store("sha256:machine-a", update); err != nil {
		t.Fatalf("same-machine overwrite refused: %v", err)
	}
}

// TestFileCacheStoreRepairsCorruptFile: an unreadable file is nobody's
// entry, so Store may replace it.
func TestFileCacheStoreRepairsCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "servet.json")
	if err := os.WriteFile(path, []byte("{{{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	cache := servet.NewFileCache(path)
	if err := cache.Store("sha256:machine-a", sampleReport("sha256:machine-a", 16<<10)); err != nil {
		t.Fatalf("corrupt file not repaired: %v", err)
	}
	if _, ok := cache.Lookup("sha256:machine-a"); !ok {
		t.Error("repaired entry unreadable")
	}
}

// TestCacheStoreFingerprintMismatch: the fingerprint-keyed local
// caches file a report only under its own fingerprint. A Store under
// another key fails typed — the same *FingerprintMismatchError
// FileCache and RemoteCache return — and leaves both keys empty, so a
// later Lookup never hands a session another machine's sections.
func TestCacheStoreFingerprintMismatch(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cache servet.Cache
	}{
		{"memory", servet.NewMemoryCache()},
		{"directory", servet.NewDirCache(t.TempDir())},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cache.Store("sha256:machine-a", sampleReport("sha256:machine-b", 16<<10))
			var fe *servet.FingerprintMismatchError
			if !errors.As(err, &fe) {
				t.Fatalf("err = %v, want *FingerprintMismatchError", err)
			}
			if fe.Have != "sha256:machine-b" || fe.Want != "sha256:machine-a" {
				t.Errorf("error fields = %+v", fe)
			}
			for _, fp := range []string{"sha256:machine-a", "sha256:machine-b"} {
				if r, ok := tc.cache.Lookup(fp); ok {
					t.Errorf("refused store left an entry under %s: %+v", fp, r)
				}
			}
		})
	}
}
