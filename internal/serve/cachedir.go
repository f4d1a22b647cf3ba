package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"boedag/internal/cachestore"
)

// snapshotFile is the on-disk name of the warm cache inside CacheDir.
const snapshotFile = "estimate_cache.snap"

// stampRequest is the canonical estimate behind modelStamp: small, and
// answered by the same scenario, estimator and encoder as a request.
const stampRequest = `{"workflow": "wc+ts", "options": {"mode": "normal", "micro_gb": 1}}`

// modelStamp fingerprints the model behind the cached bodies: the
// SHA-256 of stampRequest's response body, computed once per process.
// Snapshots carry it, so a change to the estimator's numbers or to the
// encoding that keeps the cache keys retires the snapshots an older
// build wrote, with no version number to bump by hand.
var modelStamp = sync.OnceValue(func() string {
	req, apiErr := DecodeEstimateRequest(strings.NewReader(stampRequest))
	if apiErr != nil {
		panic("serve: stamp request: " + apiErr.Error())
	}
	flow, est, apiErr := (&Server{cfg: Config{}.withDefaults()}).scenario(req)
	if apiErr != nil {
		panic("serve: stamp request: " + apiErr.Error())
	}
	plan, err := est.Estimate(flow)
	if err != nil {
		panic("serve: stamp estimate: " + err.Error())
	}
	body, err := marshalBody(buildEstimateResponse(plan))
	if err != nil {
		panic("serve: stamp estimate: " + err.Error())
	}
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:])
})

// SnapshotPath returns where the warm cache snapshot lives, or "" when no
// CacheDir is configured.
func (s *Server) SnapshotPath() string {
	if s.cfg.CacheDir == "" {
		return ""
	}
	return filepath.Join(s.cfg.CacheDir, snapshotFile)
}

// restoreCache warms the response cache from the CacheDir snapshot during
// New. A missing snapshot is a clean cold start; a damaged one, or one
// stamped by another model, is counted in cache_restore_failed and
// otherwise ignored — a bad warm cache must never stop the daemon from
// booting, and a stale one must never answer. Only an unusable CacheDir (cannot
// be created) is a hard error, because the operator asked for durability
// the server cannot provide.
func (s *Server) restoreCache() error {
	path := s.SnapshotPath()
	if path == "" {
		return nil
	}
	if err := os.MkdirAll(s.cfg.CacheDir, 0o755); err != nil {
		return fmt.Errorf("serve: cache dir: %w", err)
	}
	stamp, entries, err := cachestore.ReadStamped(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		return nil // first boot: nothing to restore
	case err != nil, stamp != modelStamp():
		s.restoreFailed.Inc()
		return nil
	}
	for _, e := range entries {
		s.cache.Seed(e.Key, e.Val)
		s.restored.Inc()
	}
	return nil
}

// SaveCacheSnapshot persists the completed response-cache entries to the
// CacheDir snapshot (atomically — a crash mid-save keeps the previous
// snapshot). It is a no-op without a CacheDir. Serve calls it after the
// graceful drain; long-running deployments may also call it periodically.
func (s *Server) SaveCacheSnapshot() error {
	path := s.SnapshotPath()
	if path == "" {
		return nil
	}
	var entries []cachestore.Entry
	s.cache.Range(func(key string, val []byte) bool {
		entries = append(entries, cachestore.Entry{Key: key, Val: val})
		return true
	})
	return cachestore.Write(path, modelStamp(), entries)
}
