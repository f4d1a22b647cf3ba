// Package cachestore persists a response cache to disk so a restarted
// prediction daemon answers its first requests warm instead of
// cold-starting every PlanKey. The snapshot is a single self-validating
// file: a magic string, a format version, length-prefixed key/value
// records, and a trailing FNV-1a checksum over everything before it.
// Readers are strict — a truncated, corrupt, or unknown-version file is
// rejected with a typed error and never a panic (FuzzReadSnapshot holds
// that line) — because a bad warm cache is worse than a cold one.
//
// Writes are atomic: the snapshot is written to a temporary file in the
// target directory, synced, and renamed over the destination, so a crash
// mid-save leaves the previous snapshot intact.
package cachestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// Entry is one cached key/value pair. Values are opaque bytes — for the
// prediction daemon they are marshalled response bodies keyed by the
// canonical evalpool PlanKey.
type Entry struct {
	Key string
	Val []byte
}

// Format constants. Version bumps whenever the byte layout changes;
// readers reject versions they do not understand rather than guessing.
const (
	magic   = "boedag-cache-snapshot\n"
	Version = 1
	// MaxKeyLen and MaxValLen bound one record; a snapshot claiming more
	// is corrupt by definition (responses are MiB-scale at most).
	MaxKeyLen = 1 << 16
	MaxValLen = 1 << 26
)

// Typed failures. Callers that warm-start switch on these to decide
// between "no snapshot yet" (fine) and "snapshot damaged" (start cold,
// count it).
var (
	// ErrBadMagic means the file is not a cache snapshot at all.
	ErrBadMagic = errors.New("cachestore: bad magic")
	// ErrUnknownVersion means the snapshot was written by a newer format.
	ErrUnknownVersion = errors.New("cachestore: unknown snapshot version")
	// ErrCorrupt means the file is recognizably a snapshot but damaged —
	// truncated records, oversized lengths, or a checksum mismatch.
	ErrCorrupt = errors.New("cachestore: corrupt snapshot")
)

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnv64a(h uint64, b []byte) uint64 {
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime
	}
	return h
}

// Encode renders entries in snapshot format. The output is a pure
// function of the entries (order included), so identical cache states
// snapshot to identical bytes.
func Encode(entries []Entry) []byte {
	size := len(magic) + 1 + binary.MaxVarintLen64 + 8
	for _, e := range entries {
		size += 2*binary.MaxVarintLen64 + len(e.Key) + len(e.Val)
	}
	out := make([]byte, 0, size)
	out = append(out, magic...)
	out = append(out, Version)
	out = binary.AppendUvarint(out, uint64(len(entries)))
	for _, e := range entries {
		out = binary.AppendUvarint(out, uint64(len(e.Key)))
		out = append(out, e.Key...)
		out = binary.AppendUvarint(out, uint64(len(e.Val)))
		out = append(out, e.Val...)
	}
	sum := fnv64a(fnvOffset, out)
	return binary.BigEndian.AppendUint64(out, sum)
}

// Decode parses snapshot bytes, validating structure, bounds, and the
// trailing checksum. It never panics on any input.
func Decode(data []byte) ([]Entry, error) {
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		return nil, ErrBadMagic
	}
	if len(data) < len(magic)+1+8 {
		return nil, fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	if v := data[len(magic)]; v != Version {
		return nil, fmt.Errorf("%w: version %d", ErrUnknownVersion, v)
	}
	body, tail := data[:len(data)-8], data[len(data)-8:]
	if got, want := fnv64a(fnvOffset, body), binary.BigEndian.Uint64(tail); got != want {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	rest := body[len(magic)+1:]
	count, n := uvarint(rest)
	if n <= 0 {
		return nil, fmt.Errorf("%w: unreadable entry count", ErrCorrupt)
	}
	rest = rest[n:]
	if count > uint64(len(rest)) { // every record needs ≥ 1 byte
		return nil, fmt.Errorf("%w: entry count %d exceeds snapshot size", ErrCorrupt, count)
	}
	entries := make([]Entry, 0, count)
	for i := uint64(0); i < count; i++ {
		key, next, err := record(rest, MaxKeyLen, "key")
		if err != nil {
			return nil, err
		}
		val, next2, err := record(next, MaxValLen, "value")
		if err != nil {
			return nil, err
		}
		rest = next2
		entries = append(entries, Entry{Key: string(key), Val: append([]byte(nil), val...)})
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after last record", ErrCorrupt, len(rest))
	}
	return entries, nil
}

// uvarint is binary.Uvarint restricted to canonical (minimal-length)
// encodings, so every decodable snapshot re-encodes to identical bytes —
// the round-trip invariant FuzzReadSnapshot asserts.
func uvarint(data []byte) (uint64, int) {
	v, n := binary.Uvarint(data)
	if n <= 0 || n != len(binary.AppendUvarint(nil, v)) {
		return 0, 0
	}
	return v, n
}

// record reads one length-prefixed field off data.
func record(data []byte, max int, what string) (field, rest []byte, err error) {
	n, read := uvarint(data)
	if read <= 0 {
		return nil, nil, fmt.Errorf("%w: unreadable %s length", ErrCorrupt, what)
	}
	data = data[read:]
	if n > uint64(max) {
		return nil, nil, fmt.Errorf("%w: %s length %d exceeds bound %d", ErrCorrupt, what, n, max)
	}
	if n > uint64(len(data)) {
		return nil, nil, fmt.Errorf("%w: truncated %s", ErrCorrupt, what)
	}
	return data[:n], data[n:], nil
}

// Write atomically replaces the snapshot at path: encode, write to a
// temporary file in the same directory, sync, rename.
func Write(path string, entries []Entry) error {
	data := Encode(entries)
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("cachestore: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("cachestore: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("cachestore: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("cachestore: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("cachestore: %w", err)
	}
	return nil
}

// Read loads and validates the snapshot at path. A missing file is
// reported via os.IsNotExist / errors.Is(err, os.ErrNotExist) so callers
// can treat "no snapshot yet" as a clean cold start.
func Read(path string) ([]Entry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}
