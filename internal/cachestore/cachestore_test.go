package cachestore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func sample() []Entry {
	return []Entry{
		{Key: "plan|abc", Val: []byte(`{"makespan_s": 12.5}`)},
		{Key: "plan|def", Val: []byte{}},
		{Key: "explain|abc", Val: []byte("x\x00\xffbinary ok")},
	}
}

const stamp = "model-a"

func TestRoundTrip(t *testing.T) {
	in := sample()
	data := Encode(stamp, in)
	gotStamp, out, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if gotStamp != stamp {
		t.Errorf("stamp %q, want %q", gotStamp, stamp)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d entries, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].Key != in[i].Key || !bytes.Equal(out[i].Val, in[i].Val) {
			t.Errorf("entry %d: got %q/%q, want %q/%q", i, out[i].Key, out[i].Val, in[i].Key, in[i].Val)
		}
	}
	// Encoding is deterministic: same entries, same bytes.
	if !bytes.Equal(data, Encode(stamp, sample())) {
		t.Errorf("Encode is not deterministic")
	}
	// Empty snapshots round-trip too, stamped or not.
	if st, out, err := Decode(Encode("", nil)); err != nil || st != "" || len(out) != 0 {
		t.Errorf("empty snapshot: stamp %q, %v entries, err %v", st, out, err)
	}
}

func TestWriteReadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "estimate_cache.snap")
	if err := Write(path, stamp, sample()); err != nil {
		t.Fatalf("Write: %v", err)
	}
	st, out, err := ReadStamped(path)
	if err != nil {
		t.Fatalf("ReadStamped: %v", err)
	}
	if st != stamp || len(out) != 3 {
		t.Fatalf("read stamp %q and %d entries, want %q and 3", st, len(out), stamp)
	}
	// Atomic replace: no temp files left behind, old content replaced.
	if err := Write(path, stamp, sample()[:1]); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	files, _ := os.ReadDir(dir)
	for _, f := range files {
		if strings.Contains(f.Name(), ".tmp-") {
			t.Errorf("temporary file %s left behind", f.Name())
		}
	}
	if out, _ := Read(path); len(out) != 1 {
		t.Errorf("rewrite kept %d entries, want 1", len(out))
	}
}

func TestReadMissingFile(t *testing.T) {
	_, err := Read(filepath.Join(t.TempDir(), "nope.snap"))
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file error = %v, want ErrNotExist", err)
	}
}

func TestDecodeRejectsDamage(t *testing.T) {
	good := Encode(stamp, sample())
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrBadMagic},
		{"not a snapshot", []byte("hello world, definitely not a snapshot"), ErrBadMagic},
		{"magic only", []byte(magic), ErrCorrupt},
		{"unknown version", flip(good, len(magic)), ErrUnknownVersion},
		{"truncated mid-record", good[:len(good)-12], ErrCorrupt},
		{"checksum flip", flip(good, len(good)-1), ErrCorrupt},
		{"payload flip", flip(good, len(magic)+8), ErrCorrupt},
		{"trailing garbage", append(append([]byte{}, good...), 0xAA), ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := Decode(tc.data); !errors.Is(err, tc.want) {
				t.Errorf("Decode(%s) = %v, want %v", tc.name, err, tc.want)
			}
		})
	}
}

// TestDecodeRejectsHugeClaims pins the allocation bound: a tiny file
// claiming an enormous stamp or record must fail cleanly, not allocate.
func TestDecodeRejectsHugeClaims(t *testing.T) {
	huge := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x40} // uvarint 2^40
	for name, fields := range map[string][][]byte{
		"stamp": {huge},
		"key":   {{0x00}, {0x01}, huge}, // empty stamp, count 1, keylen 2^40
	} {
		// Hand-build: magic, version, fields, checksum.
		data := []byte(magic)
		data = append(data, Version)
		for _, f := range fields {
			data = append(data, f...)
		}
		sum := fnv64a(fnvOffset, data)
		data = append(data, byte(sum>>56), byte(sum>>48), byte(sum>>40), byte(sum>>32),
			byte(sum>>24), byte(sum>>16), byte(sum>>8), byte(sum))
		if _, _, err := Decode(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("huge %s length claim: %v, want ErrCorrupt", name, err)
		}
	}
}

// flip returns a copy of data with one byte inverted.
func flip(data []byte, i int) []byte {
	out := append([]byte(nil), data...)
	out[i] ^= 0xFF
	return out
}
