package cachestore

import (
	"bytes"
	"testing"
)

// FuzzReadSnapshot holds the reader's never-panic contract: any byte
// string either decodes to entries that re-encode losslessly, or is
// rejected with an error — never a panic, never a silent partial read.
func FuzzReadSnapshot(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte(magic))
	f.Add(Encode("", nil))
	f.Add(Encode("s", []Entry{{Key: "k", Val: []byte("v")}}))
	f.Add(Encode(stamp, sample()))
	damaged := Encode(stamp, sample())
	damaged[len(damaged)/2] ^= 0x55
	f.Add(damaged)
	f.Fuzz(func(t *testing.T, data []byte) {
		st, entries, err := Decode(data)
		if err != nil {
			return
		}
		// A snapshot that decodes must round-trip byte-identically: the
		// format has no redundant encodings before the checksum.
		if !bytes.Equal(Encode(st, entries), data) {
			t.Fatalf("decoded snapshot does not re-encode to the same bytes")
		}
	})
}
