// Directory layout for multi-entry report storage: one JSON report
// file per machine fingerprint, the directory backend of Store. The
// public DirCache (a probe cache for heterogeneous sweeps) and the
// registry server's -store directory both sit on it, so a server
// pointed at a sweep's cache directory serves its reports as-is.
package report

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Dir is the directory Store: per-fingerprint report files. Each
// entry lives in its own file named after the (sanitized)
// fingerprint, so entries for different machines never collide and a
// whole heterogeneous sweep can share one directory.
type Dir struct {
	// Path is the directory holding the entries. It is created on the
	// first Put.
	Path string
}

// entryName maps a fingerprint to a file name: bytes outside
// [a-zA-Z0-9._-] (the ':' of "sha256:...", above all) become '-',
// keeping names portable across filesystems.
func entryName(fingerprint string) string {
	var b strings.Builder
	for _, r := range fingerprint {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			b.WriteRune(r)
		default:
			b.WriteByte('-')
		}
	}
	return b.String() + ".json"
}

// EntryPath returns the file path a fingerprint's report lives at.
func (d Dir) EntryPath(fingerprint string) string {
	return filepath.Join(d.Path, entryName(fingerprint))
}

// Put implements Store: it writes the report into its entry file
// byte for byte as Save would, creating the directory on first use.
// The write is atomic (temp file plus rename), so a concurrent Get
// never observes a partial entry.
func (d Dir) Put(r *Report) error {
	data, err := encode(r)
	if err == nil {
		data, err = Indent(data)
	}
	if err != nil {
		return err
	}
	if err := os.MkdirAll(d.Path, 0o755); err != nil {
		return fmt.Errorf("report: %w", err)
	}
	tmp, err := os.CreateTemp(d.Path, entryName(r.Fingerprint)+".tmp*")
	if err != nil {
		return fmt.Errorf("report: %w", err)
	}
	// CreateTemp makes the file 0600; entries are install-time
	// parameter files other users' autotuners read, so widen to the
	// mode Save uses before publishing the entry.
	_, err = tmp.Write(data)
	if err = errors.Join(err, tmp.Chmod(0o644), tmp.Close()); err == nil {
		err = os.Rename(tmp.Name(), d.EntryPath(r.Fingerprint))
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("report: %w", err)
	}
	return nil
}

// Get implements Store: it reads the entry file fresh and re-encodes
// it canonically, so a hand-edited file (other whitespace, reordered
// keys, unknown fields) reads back as a Put would have written it. An
// entry that fails Load or carries another fingerprint (a renamed
// file) is ErrNotFound, with the cause attached.
func (d Dir) Get(fingerprint string) ([]byte, error) {
	path := d.EntryPath(fingerprint)
	r, err := Load(path)
	if err == nil && r.Fingerprint != fingerprint {
		err = fmt.Errorf("report: %s holds report for %s, want %s", path, r.Fingerprint, fingerprint)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %w", ErrNotFound, fingerprint, err)
	}
	return json.Marshal(r)
}

// List implements Store. Unreadable, schema-incompatible or
// fingerprint-less files are skipped, not errors: a cache directory
// degrades to the entries that are still valid. A missing directory
// lists empty.
func (d Dir) List() ([]*Report, error) {
	files, err := os.ReadDir(d.Path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	var out []*Report
	for _, f := range files {
		if f.IsDir() || !strings.HasSuffix(f.Name(), ".json") {
			continue
		}
		r, err := Load(filepath.Join(d.Path, f.Name()))
		if err != nil || r.Fingerprint == "" {
			continue
		}
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Fingerprint < out[j].Fingerprint })
	return out, nil
}
