package report

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzDecode drives the one boundary where stored bytes — a saved
// file, a directory entry, a cache entry — become a Report. Whatever
// the input, Decode must not panic, and every input it accepts must
// re-encode to canonical compact bytes that decode again to the same
// bytes, and that a store hands back unchanged. The committed corpus
// under testdata/fuzz/FuzzDecode seeds a valid report, a pre-v2 file,
// an unknown schema, truncated JSON and fields of the wrong type.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := Decode("fuzz", data)
		if err != nil {
			return
		}
		canon, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("accepted input does not re-encode: %v", err)
		}
		again, err := Decode("fuzz", canon)
		if err != nil {
			t.Fatalf("canonical bytes rejected: %v\n%s", err, canon)
		}
		if b, _ := json.Marshal(again); !bytes.Equal(b, canon) {
			t.Fatalf("canonical bytes are not a fixed point:\n%s\n%s", canon, b)
		}
		if r.Fingerprint == "" {
			return
		}
		s := NewMem()
		if err := s.Put(r); err != nil {
			t.Fatalf("accepted report not storable: %v", err)
		}
		if got, err := s.Get(r.Fingerprint); err != nil || !bytes.Equal(got, canon) {
			t.Fatalf("store entry = %s (%v), want %s", got, err, canon)
		}
	})
}
