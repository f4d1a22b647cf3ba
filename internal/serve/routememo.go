package serve

import (
	"crypto/sha256"
	"strconv"
	"sync"
)

// routeMemo remembers what prepare derived for routing from each
// distinct request body it keyed: the shard key and the body's
// timeout_ms. A repeated body — every request a warm fleet forwards is
// one, on the entry node and again on the owner — then costs one
// SHA-256 instead of a strict decode, a workflow build and a plan
// signature. The digest covers path ‖ 0 ‖ body, so the same body on two
// endpoints never aliases; SHA-256 is a far stronger identity than the
// 64-bit FNV plan key the response cache already trusts.
//
// Entries are fixed-size (no strings, no pointers), so a full memo is a
// flat map the garbage collector never scans. The memo holds at most
// limit entries; past that an arbitrary entry makes room, which only
// costs a later repeat of that body one full prepare.
type routeMemo struct {
	mu    sync.Mutex
	limit int
	m     map[routeDigest]routeEntry
}

type routeDigest [sha256.Size]byte

// routeEntry is a remembered call: key is the shard key's hash (the key
// is its base-16 rendering, evalpool.Hasher.Key's format).
type routeEntry struct {
	key       uint64
	timeoutMS int64
}

func newRouteMemo(limit int) *routeMemo {
	return &routeMemo{limit: limit, m: make(map[routeDigest]routeEntry)}
}

// digestOf hashes one request's identity for the memo.
func digestOf(path string, body []byte) routeDigest {
	h := sha256.New()
	h.Write([]byte(path))
	h.Write([]byte{0})
	h.Write(body)
	var d routeDigest
	h.Sum(d[:0])
	return d
}

// get returns the remembered shard key and timeout_ms of a digest.
func (m *routeMemo) get(d routeDigest) (key string, timeoutMS int, ok bool) {
	m.mu.Lock()
	e, ok := m.m[d]
	m.mu.Unlock()
	if !ok {
		return "", 0, false
	}
	return strconv.FormatUint(e.key, 16), int(e.timeoutMS), true
}

// put remembers a keyed call. A key that is not a base-16 uint64 is not
// remembered: its body simply prepares in full every time.
func (m *routeMemo) put(d routeDigest, c *call) {
	k, err := strconv.ParseUint(c.key, 16, 64)
	if err != nil || strconv.FormatUint(k, 16) != c.key {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.m[d]; !ok && len(m.m) >= m.limit {
		for old := range m.m {
			delete(m.m, old)
			break
		}
	}
	m.m[d] = routeEntry{key: k, timeoutMS: int64(c.timeoutMS)}
}
