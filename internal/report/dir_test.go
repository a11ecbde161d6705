package report

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func dirSample(fingerprint, machine string) *Report {
	return &Report{
		Schema:      CurrentSchema,
		Machine:     machine,
		Fingerprint: fingerprint,
		ClockGHz:    2,
		Nodes:       1, CoresPerNode: 2,
		Caches: []CacheResult{{Level: 1, SizeBytes: 16 << 10, Method: "gradient"}},
	}
}

func TestDirSaveLoadRoundTrip(t *testing.T) {
	d := Dir{Path: filepath.Join(t.TempDir(), "reports")}
	r := dirSample("sha256:aa11", "dempsey")
	if err := d.Put(r); err != nil {
		t.Fatal(err)
	}
	back := dirGet(t, d, "sha256:aa11")
	if back.Machine != "dempsey" || back.Caches[0].SizeBytes != 16<<10 {
		t.Errorf("round trip lost data: %+v", back)
	}
	// The entry file name is sanitized: no ':' on disk.
	path := d.EntryPath("sha256:aa11")
	if strings.ContainsRune(filepath.Base(path), ':') {
		t.Errorf("unsanitized entry name %s", path)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatalf("entry file missing: %v", err)
	}
	// Entries are install-time parameter files other users read: they
	// must get Save's 0644, not CreateTemp's private 0600.
	if got := info.Mode().Perm(); got != 0o644 {
		t.Errorf("entry mode = %o, want 644", got)
	}
	// ... and hold exactly the bytes Save writes for the report.
	saved := filepath.Join(t.TempDir(), "saved.json")
	if err := r.Save(saved); err != nil {
		t.Fatal(err)
	}
	want, _ := os.ReadFile(saved)
	if got, _ := os.ReadFile(path); !bytes.Equal(got, want) {
		t.Errorf("entry file differs from Save output:\n%s\nwant:\n%s", got, want)
	}
}

// dirGet reads a fingerprint's entry through the Store interface.
func dirGet(t *testing.T, d Dir, fingerprint string) *Report {
	t.Helper()
	data, err := d.Get(fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Decode(fingerprint, data)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestDirSaveRejectsFingerprintless(t *testing.T) {
	d := Dir{Path: t.TempDir()}
	r := dirSample("", "dempsey")
	if err := d.Put(r); err == nil {
		t.Error("fingerprint-less report stored")
	}
	r = dirSample("sha256:aa11", "dempsey")
	r.Schema = 1
	var se *SchemaError
	if err := d.Put(r); !errors.As(err, &se) || se.Schema != 1 {
		t.Errorf("non-current schema: err = %v, want *SchemaError", err)
	}
}

func TestDirLoadVerifiesFingerprint(t *testing.T) {
	d := Dir{Path: t.TempDir()}
	if err := d.Put(dirSample("sha256:aa11", "dempsey")); err != nil {
		t.Fatal(err)
	}
	// Rename the entry under another fingerprint's name: Load must
	// refuse to serve it for the wrong machine.
	if err := os.Rename(d.EntryPath("sha256:aa11"), d.EntryPath("sha256:bb22")); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Get("sha256:bb22"); !errors.Is(err, ErrNotFound) {
		t.Errorf("renamed entry served under the wrong fingerprint: err = %v", err)
	}
}

func TestDirList(t *testing.T) {
	d := Dir{Path: filepath.Join(t.TempDir(), "reports")}

	// A missing directory lists empty, not an error.
	if got, err := d.List(); err != nil || len(got) != 0 {
		t.Fatalf("missing dir: %v, %v", got, err)
	}

	for _, e := range []struct{ fp, machine string }{
		{"sha256:bb22", "athlon3200"},
		{"sha256:aa11", "dempsey"},
	} {
		if err := d.Put(dirSample(e.fp, e.machine)); err != nil {
			t.Fatal(err)
		}
	}
	// Junk files are skipped, not errors.
	if err := os.WriteFile(filepath.Join(d.Path, "junk.json"), []byte("{{{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(d.Path, "notes.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}

	got, err := d.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("listed %d entries, want 2", len(got))
	}
	// Sorted by fingerprint.
	if got[0].Fingerprint != "sha256:aa11" || got[1].Fingerprint != "sha256:bb22" {
		t.Errorf("order = %s, %s", got[0].Fingerprint, got[1].Fingerprint)
	}
}

func TestDirSaveOverwritesAtomically(t *testing.T) {
	d := Dir{Path: t.TempDir()}
	if err := d.Put(dirSample("sha256:aa11", "dempsey")); err != nil {
		t.Fatal(err)
	}
	update := dirSample("sha256:aa11", "dempsey")
	update.Caches[0].SizeBytes = 32 << 10
	if err := d.Put(update); err != nil {
		t.Fatal(err)
	}
	if back := dirGet(t, d, "sha256:aa11"); back.Caches[0].SizeBytes != 32<<10 {
		t.Errorf("overwrite lost: %d", back.Caches[0].SizeBytes)
	}
	// No temp litter left behind.
	files, err := os.ReadDir(d.Path)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Errorf("directory holds %d files, want 1", len(files))
	}
}
