package serve

import (
	"context"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"boedag/internal/cachestore"
)

// TestWarmRestart is the disk-backed cache's end-to-end contract: a
// server that computed an estimate and a schedule snapshots them, and a
// fresh server on the same CacheDir answers both as cache hits without
// running the estimator or the replay once.
func TestWarmRestart(t *testing.T) {
	dir := t.TempDir()
	body := readRequest(t, "estimate_wc_ts")
	sched := readRequest(t, "schedule_flat")

	s1, ts1 := newTestServer(t, Config{CacheDir: dir})
	status, first, _ := post(t, ts1.URL+"/v1/estimate", body)
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, first)
	}
	status, firstSched, _ := post(t, ts1.URL+"/v1/schedule", sched)
	if status != http.StatusOK {
		t.Fatalf("schedule status = %d: %s", status, firstSched)
	}
	if err := s1.SaveCacheSnapshot(); err != nil {
		t.Fatalf("SaveCacheSnapshot: %v", err)
	}
	ts1.Close()

	s2, ts2 := newTestServer(t, Config{CacheDir: dir})
	if got := s2.Metrics().Counter("cache_restored_entries").Value(); got < 1 {
		t.Fatalf("restored %d entries, want >= 1", got)
	}
	status, second, _ := post(t, ts2.URL+"/v1/estimate", body)
	if status != http.StatusOK {
		t.Fatalf("restarted status = %d: %s", status, second)
	}
	if string(first) != string(second) {
		t.Errorf("warm answer diverged from the original bytes")
	}
	if got := s2.Metrics().Counter("estimates_computed").Value(); got != 0 {
		t.Errorf("restarted server ran the estimator %d times, want 0", got)
	}
	if hits, _ := s2.CacheStats(); hits != 1 {
		t.Errorf("first post-restart request counted %d hits, want 1", hits)
	}
	status, secondSched, _ := post(t, ts2.URL+"/v1/schedule", sched)
	if status != http.StatusOK {
		t.Fatalf("restarted schedule status = %d: %s", status, secondSched)
	}
	if string(firstSched) != string(secondSched) {
		t.Errorf("warm schedule diverged from the original bytes")
	}
	if got := s2.Metrics().Counter("schedules_computed").Value(); got != 0 {
		t.Errorf("restarted server replayed the schedule %d times, want 0", got)
	}
}

// TestRestoreCorruptSnapshot: a damaged snapshot must not stop the boot —
// the server starts cold and counts the failure.
func TestRestoreCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapshotFile), []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{CacheDir: dir})
	if got := s.Metrics().Counter("cache_restore_failed").Value(); got != 1 {
		t.Errorf("cache_restore_failed = %d, want 1", got)
	}
	status, _, _ := post(t, ts.URL+"/v1/estimate", readRequest(t, "estimate_wc_ts"))
	if status != http.StatusOK {
		t.Errorf("cold-after-corruption request failed: %d", status)
	}
}

// TestRestoreRejectsOtherModelStamp: a snapshot stamped by another
// model restores nothing, counts as a failed restore, and the request
// it held is computed afresh.
func TestRestoreRejectsOtherModelStamp(t *testing.T) {
	dir := t.TempDir()
	body := readRequest(t, "estimate_wc_ts")
	s1, ts1 := newTestServer(t, Config{CacheDir: dir})
	if status, resp, _ := post(t, ts1.URL+"/v1/estimate", body); status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, resp)
	}
	if err := s1.SaveCacheSnapshot(); err != nil {
		t.Fatalf("SaveCacheSnapshot: %v", err)
	}
	ts1.Close()
	stamp, entries, err := cachestore.ReadStamped(s1.SnapshotPath())
	if err != nil || stamp != modelStamp() || len(entries) != 1 {
		t.Fatalf("saved snapshot: stamp %q (model %q), %d entries, err %v", stamp, modelStamp(), len(entries), err)
	}
	if err := cachestore.Write(s1.SnapshotPath(), "older-model", entries); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := newTestServer(t, Config{CacheDir: dir})
	if got := s2.Metrics().Counter("cache_restored_entries").Value(); got != 0 {
		t.Errorf("restored %d entries of another model's snapshot", got)
	}
	if got := s2.Metrics().Counter("cache_restore_failed").Value(); got != 1 {
		t.Errorf("cache_restore_failed = %d, want 1", got)
	}
	if status, resp, _ := post(t, ts2.URL+"/v1/estimate", body); status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, resp)
	}
	if got := s2.Metrics().Counter("estimates_computed").Value(); got != 1 {
		t.Errorf("estimates_computed = %d, want 1", got)
	}
}

// TestServeSnapshotsOnDrain: the graceful path (Serve's drain) writes the
// snapshot without any explicit SaveCacheSnapshot call.
func TestServeSnapshotsOnDrain(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{CacheDir: dir, DrainTimeout: time.Second})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, ln) }()

	url := "http://" + ln.Addr().String()
	status, _, _, err := tryPost(url+"/v1/estimate", readRequest(t, "estimate_wc_ts"))
	if err != nil || status != http.StatusOK {
		t.Fatalf("estimate: %d %v", status, err)
	}
	cancel()
	if err := <-served; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotFile)); err != nil {
		t.Errorf("drain left no snapshot: %v", err)
	}
}
