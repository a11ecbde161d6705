package server

import (
	"errors"
	"sync/atomic"

	"servet/internal/report"
)

// NewMemStore returns an empty in-memory report store.
func NewMemStore() *report.Mem { return report.NewMem() }

// NewDirStore returns a report store over the directory of
// per-fingerprint JSON files at path, created on the first Put — the
// layout the public DirCache writes.
func NewDirStore(path string) report.Dir { return report.Dir{Path: path} }

// countedStore counts every Get of the registry's store — report and
// section GETs and run lookups alike — as a hit or, for a definite
// absence only, a miss (Stats and /metrics).
type countedStore struct {
	report.Store
	hits, misses atomic.Int64
}

// Get implements report.Store.
func (s *countedStore) Get(fingerprint string) ([]byte, error) {
	data, err := s.Store.Get(fingerprint)
	switch {
	case err == nil:
		s.hits.Add(1)
	case errors.Is(err, report.ErrNotFound):
		s.misses.Add(1)
	}
	return data, err
}
