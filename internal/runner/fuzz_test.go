package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// FuzzDiskEntry feeds arbitrary bytes to the one cache-entry decoder that
// both results and CachedJSON blobs go through. The decoder must never
// panic, and it may serve only a current-format entry of the asked-for kind
// whose value bytes match the entry's sum. The committed corpus under
// testdata/fuzz/FuzzDiskEntry holds a result, a blob, an older-generation
// entry, a truncation, a digit flip, a missing value and a wrong kind.
func FuzzDiskEntry(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, kind string) {
		value, err := decodeEntry(data, kind)
		if err != nil {
			if value != nil {
				t.Fatalf("decoder returned a value with error %v", err)
			}
			return
		}
		var e diskEntry
		if err := json.Unmarshal(data, &e); err != nil {
			t.Fatalf("served an entry that does not parse: %v", err)
		}
		if e.Schema != entrySchema || e.Kind != kind {
			t.Fatalf("served a %q/%q entry for kind %q", e.Schema, e.Kind, kind)
		}
		if sum := sha256.Sum256(value); len(value) == 0 || hex.EncodeToString(sum[:]) != e.Sum {
			t.Fatalf("served %q, which does not match sum %q", value, e.Sum)
		}
		if string(value) != string(e.Value) {
			t.Fatalf("served %q, not the entry's value %q", value, e.Value)
		}
	})
}
