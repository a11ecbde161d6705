package report

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
)

// ErrNotFound reports a Get for a fingerprint the store holds no
// entry for.
var ErrNotFound = errors.New("report: no entry for fingerprint")

// Store holds one report per machine fingerprint, behind both the
// session caches and the probe registry, as canonical compact JSON
// (json.Marshal of the Report). Its two backends, Mem and Dir, are
// safe for concurrent use.
type Store interface {
	// Get returns the canonical compact JSON of the fingerprint's
	// entry. The bytes may be shared with the store and must not be
	// modified. A missing entry is ErrNotFound (possibly wrapped).
	Get(fingerprint string) ([]byte, error)
	// Put stores the report under its fingerprint, replacing any
	// previous entry. A fingerprint-less report is an error; a report
	// with a schema other than CurrentSchema is a *SchemaError.
	Put(r *Report) error
	// List returns every readable entry, decoded, sorted by
	// fingerprint.
	List() ([]*Report, error)
}

// encode is the Put contract every Store shares: it checks the report
// is storable and returns its canonical compact JSON.
func encode(r *Report) ([]byte, error) {
	if r.Fingerprint == "" {
		return nil, errors.New("report: cannot store a report without a fingerprint")
	}
	if r.Schema != CurrentSchema {
		return nil, &SchemaError{Path: r.Fingerprint, Schema: r.Schema}
	}
	data, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("report: marshal: %w", err)
	}
	return data, nil
}

// Indent turns an entry's canonical compact JSON into its indented
// form plus a trailing newline: byte for byte what Save writes for
// the report, and what the registry serves.
func Indent(compact []byte) ([]byte, error) {
	var buf bytes.Buffer
	// Indenting a report grows it about fivefold (its arrays nest
	// deep): size the buffer once instead of re-growing it per GET.
	buf.Grow(len(compact) * 5)
	if err := json.Indent(&buf, compact, "", "  "); err != nil {
		return nil, fmt.Errorf("report: indent: %w", err)
	}
	buf.WriteByte('\n')
	return buf.Bytes(), nil
}

// Mem is the in-memory Store: each entry is the compact JSON Put
// encoded, never modified afterwards, so Get hands out the stored
// bytes without copying. The zero value is not usable; call NewMem.
type Mem struct {
	mu sync.RWMutex
	m  map[string][]byte
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem {
	return &Mem{m: make(map[string][]byte)}
}

// Get implements Store.
func (s *Mem) Get(fingerprint string) ([]byte, error) {
	s.mu.RLock()
	data, ok := s.m[fingerprint]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, fingerprint)
	}
	return data, nil
}

// Put implements Store.
func (s *Mem) Put(r *Report) error {
	data, err := encode(r)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[r.Fingerprint] = data
	return nil
}

// List implements Store.
func (s *Mem) List() ([]*Report, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*Report, 0, len(s.m))
	for _, fp := range slices.Sorted(maps.Keys(s.m)) {
		r, err := Decode(fp, s.m[fp])
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// Cache is the probe-result cache over a Store; it satisfies
// servet.Cache.
type Cache struct {
	// Entries is the store the cache reads and writes.
	Entries Store
}

// Lookup decodes a fresh report from the fingerprint's entry, so every
// caller owns its copy. Any failure is a miss (ok=false).
func (c Cache) Lookup(fingerprint string) (*Report, bool) {
	data, err := c.Entries.Get(fingerprint)
	if err != nil {
		return nil, false
	}
	r, err := Decode(fingerprint, data)
	if err != nil {
		return nil, false
	}
	return r, true
}

// Store saves the report as the fingerprint's entry. A report for
// another machine fails with a *FingerprintMismatchError.
func (c Cache) Store(fingerprint string, r *Report) error {
	if r.Fingerprint != fingerprint {
		return &FingerprintMismatchError{Have: r.Fingerprint, Want: fingerprint}
	}
	return c.Entries.Put(r)
}

// FingerprintMismatchError reports a cache store refused because it
// would file one machine's report under another machine's key.
type FingerprintMismatchError struct {
	// Path is the backing file (or registry URL) whose entry was
	// protected; empty when the report disagreed with its own key.
	Path string
	// Have is the fingerprint of the report already at Path, or of
	// the report being stored when Path is empty.
	Have string
	// Want is the fingerprint the refused Store carried.
	Want string
}

func (e *FingerprintMismatchError) Error() string {
	if e.Path == "" {
		return fmt.Sprintf("cache: report is for machine %s, refusing to store it under %s", e.Have, e.Want)
	}
	return fmt.Sprintf("cache file %s holds report for machine %s, refusing to overwrite with %s (use one cache file per machine)", e.Path, e.Have, e.Want)
}
