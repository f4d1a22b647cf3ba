package fleet_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"boedag/internal/fleet"
	"boedag/internal/fleet/fleettest"
	"boedag/internal/serve"
)

// serveTestdata resolves the serve package's conformance fixtures — the
// fleet must answer each one byte-for-byte like a single node does.
func serveTestdata(t testing.TB, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "serve", "testdata", name))
	if err != nil {
		t.Fatalf("read fixture: %v", err)
	}
	return b
}

// fixtureNames lists every *.req.json fixture with one of the sharded
// endpoint prefixes.
func fixtureNames(t testing.TB) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join("..", "serve", "testdata"))
	if err != nil {
		t.Fatalf("read testdata dir: %v", err)
	}
	var names []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".req.json") {
			names = append(names, strings.TrimSuffix(e.Name(), ".req.json"))
		}
	}
	if len(names) < 10 {
		t.Fatalf("only %d fixtures found — wrong directory?", len(names))
	}
	return names
}

// fixturePath maps a fixture name prefix to its endpoint.
func fixturePath(name string) string {
	switch {
	case strings.HasPrefix(name, "estimate_"), strings.HasPrefix(name, "stream_"):
		return "/v1/estimate"
	case strings.HasPrefix(name, "explain_"):
		return "/v1/explain"
	case strings.HasPrefix(name, "batch_"):
		return "/v1/batch"
	case strings.HasPrefix(name, "schedule_"):
		return "/v1/schedule"
	}
	return ""
}

func post(t testing.TB, url string, body []byte) (int, []byte) {
	t.Helper()
	status, b, _, err := tryPost(url, body)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return status, b
}

func tryPost(url string, body []byte) (int, []byte, http.Header, error) {
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, b, resp.Header, nil
}

// TestFleetByteIdentity is the fleet's core promise: for every golden
// fixture, every node of a 3-node fleet answers with exactly the bytes a
// standalone server produces — same status, same body — no matter which
// node the client happened to hit.
func TestFleetByteIdentity(t *testing.T) {
	solo, err := serve.New(serve.Config{Workers: 2})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	soloTS := httptest.NewServer(solo.Handler())
	defer soloTS.Close()

	c := fleettest.New(t, 3, fleettest.Options{ServeConfig: serve.Config{Workers: 2}})
	for _, name := range fixtureNames(t) {
		path := fixturePath(name)
		if path == "" {
			continue
		}
		t.Run(name, func(t *testing.T) {
			body := serveTestdata(t, name+".req.json")
			wantStatus, wantBody := post(t, soloTS.URL+path, body)
			for i := range c.Nodes {
				status, got := post(t, c.URL(i)+path, body)
				if status != wantStatus {
					t.Errorf("node %d: status %d, single-node %d", i, status, wantStatus)
				}
				if !bytes.Equal(got, wantBody) {
					t.Errorf("node %d response diverged from single-node bytes\ngot:  %s\nwant: %s",
						i, got, wantBody)
				}
			}
		})
	}
}

// TestFleetRouting checks the shard mechanics: exactly one node computes
// a scenario no matter which node receives it, and repeat requests hit
// that owner's cache.
func TestFleetRouting(t *testing.T) {
	c := fleettest.New(t, 3, fleettest.Options{})
	body := []byte(`{"workflow": "wc+ts", "options": {"micro_gb": 7}}`)
	for i := range c.Nodes {
		status, _ := post(t, c.URL(i)+"/v1/estimate", body)
		if status != http.StatusOK {
			t.Fatalf("node %d: status %d", i, status)
		}
	}
	computed := int64(0)
	for i, n := range c.Nodes {
		v := n.Server.Metrics().Counter("estimates_computed").Value()
		if v > 1 {
			t.Errorf("node %d ran the estimator %d times for one scenario", i, v)
		}
		computed += v
	}
	if computed != 1 {
		t.Errorf("fleet ran the estimator %d times across nodes, want exactly 1", computed)
	}
}

// TestFleetForwardedHeader pins the single-hop contract: a request
// carrying the hop header is served locally even by a non-owner, so ring
// disagreement cannot loop requests between nodes.
func TestFleetForwardedHeader(t *testing.T) {
	c := fleettest.New(t, 3, fleettest.Options{})
	body := []byte(`{"workflow": "wc+ts", "options": {"micro_gb": 9}}`)
	for i := range c.Nodes {
		req, err := http.NewRequest("POST", c.URL(i)+"/v1/estimate", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(fleet.ForwardedHeader, "test-origin")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("node %d: status %d", i, resp.StatusCode)
		}
	}
	// Every node served the pre-forwarded request itself: three computes,
	// no onward forwards.
	for i, n := range c.Nodes {
		reg := n.Server.Metrics()
		if v := reg.Counter("estimates_computed").Value(); v != 1 {
			t.Errorf("node %d computed %d times, want 1 (local serve of forwarded request)", i, v)
		}
		if v := n.Server.Metrics().Counter("fleet_forwarded").Value(); v != 0 {
			t.Errorf("node %d forwarded %d requests, want 0", i, v)
		}
		if v := n.Server.Metrics().Counter("fleet_received").Value(); v != 1 {
			t.Errorf("node %d counted %d received forwards, want 1", i, v)
		}
	}
}

// TestFleetKillOnePeer is the headline fault drill: with one node of
// three dead, every shard — including the dead node's — keeps answering
// 200 from the survivors, with no 5xx storm.
func TestFleetKillOnePeer(t *testing.T) {
	c := fleettest.New(t, 3, fleettest.Options{RetryBackoff: time.Millisecond})
	c.Kill(1)
	var bad int
	for i := 0; i < 24; i++ {
		body := []byte(fmt.Sprintf(`{"workflow": "wc", "options": {"micro_gb": %d}}`, i+1))
		for _, node := range []int{0, 2} {
			status, resp := post(t, c.URL(node)+"/v1/estimate", body)
			if status != http.StatusOK {
				bad++
				t.Errorf("node %d size %d: status %d: %s", node, i+1, status, resp)
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d requests failed with one of three nodes down", bad)
	}
}

// TestFleetPartitionDegradesLocal: a node that cannot reach any peer
// computes everything itself — the ring being down only costs cache
// locality, never availability.
func TestFleetPartitionDegradesLocal(t *testing.T) {
	c := fleettest.New(t, 3, fleettest.Options{RetryBackoff: time.Millisecond})
	c.Kill(1)
	c.Kill(2)
	for i := 0; i < 12; i++ {
		body := []byte(fmt.Sprintf(`{"workflow": "ts", "options": {"micro_gb": %d}}`, i+1))
		status, resp := post(t, c.URL(0)+"/v1/estimate", body)
		if status != http.StatusOK {
			t.Fatalf("size %d: status %d: %s", i+1, status, resp)
		}
	}
	reg := c.Nodes[0].Server.Metrics()
	if v := reg.Counter("fleet_fallback_local").Value(); v == 0 {
		t.Errorf("no fallback-local serves recorded on the surviving node")
	}
}

// TestFleetBackoffHonoursCancel: a request whose client is gone stops
// waiting out the retry backoff at once — it neither retries the next
// owner nor degrades to computing locally.
func TestFleetBackoffHonoursCancel(t *testing.T) {
	const backoff = 2 * time.Second
	c := fleettest.New(t, 3, fleettest.Options{RetryBackoff: backoff})
	c.Kill(1)

	// Find a scenario whose dead owner node1 is tried first and whose
	// fallback is the other live peer, so the entry node0 must back off.
	ring := testRing(t, 3)
	var body []byte
	for i := 1; body == nil; i++ {
		candidate := []byte(fmt.Sprintf(`{"workflow": "wc", "options": {"micro_gb": %d}}`, i))
		key, ok := c.Nodes[0].Server.RouteKey("/v1/estimate", candidate)
		if !ok {
			t.Fatalf("no route key for candidate %d", i)
		}
		if owners := ring.Owners(key, 2); owners[0] == "node1" && owners[1] == "node2" {
			body = candidate
		}
		if i > 256 {
			t.Fatal("no scenario owned by node1 then node2 in 256 tries")
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("POST", "/v1/estimate", bytes.NewReader(body)).WithContext(ctx)
	start := time.Now()
	c.Nodes[0].Node.Handler().ServeHTTP(httptest.NewRecorder(), req)
	if d := time.Since(start); d >= backoff {
		t.Errorf("cancelled request took %v, want less than the %v backoff", d, backoff)
	}
	if v := c.Nodes[0].Server.Metrics().Counter("fleet_fallback_local").Value(); v != 0 {
		t.Errorf("cancelled request fell back to local compute %d times, want 0", v)
	}
	for i, n := range c.Nodes {
		if v := n.Server.Metrics().Counter("estimates_computed").Value(); v != 0 {
			t.Errorf("node %d ran the estimator %d times for a cancelled request", i, v)
		}
	}
}

// TestFleetWarmRestart: stop a node cleanly (snapshot), restart it on a
// fresh address, and its first request for an owned scenario is a cache
// hit — the estimator does not run again.
func TestFleetWarmRestart(t *testing.T) {
	cacheDir := t.TempDir()
	c := fleettest.New(t, 3, fleettest.Options{
		CacheDirs:    map[int]string{1: cacheDir},
		RetryBackoff: time.Millisecond,
	})

	// Find a scenario owned by node 1 so its cache is the one that matters.
	ring := testRing(t, 3)
	var body []byte
	for i := 1; ; i++ {
		candidate := []byte(fmt.Sprintf(`{"workflow": "wc+ts", "options": {"micro_gb": %d}}`, i))
		key, ok := c.Nodes[0].Server.RouteKey("/v1/estimate", candidate)
		if !ok {
			t.Fatalf("no route key for candidate %d", i)
		}
		if ring.Owners(key, 1)[0] == "node1" {
			body = candidate
			break
		}
		if i > 64 {
			t.Fatalf("no scenario hashed to node1 in 64 tries")
		}
	}

	status, first := post(t, c.URL(0)+"/v1/estimate", body)
	if status != http.StatusOK {
		t.Fatalf("estimate: %d", status)
	}
	if v := c.Nodes[1].Server.Metrics().Counter("estimates_computed").Value(); v != 1 {
		t.Fatalf("owner computed %d times before restart, want 1", v)
	}

	c.Stop(1)
	restarted := c.Restart(1)
	if v := restarted.Server.Metrics().Counter("cache_restored_entries").Value(); v < 1 {
		t.Fatalf("restarted node restored %d entries, want >= 1", v)
	}
	status, second := post(t, c.URL(0)+"/v1/estimate", body)
	if status != http.StatusOK {
		t.Fatalf("post-restart estimate: %d", status)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("post-restart answer diverged from the original bytes")
	}
	if v := restarted.Server.Metrics().Counter("estimates_computed").Value(); v != 0 {
		t.Errorf("restarted node ran the estimator %d times, want 0 (warm cache hit)", v)
	}
	if hits, _ := restarted.Server.CacheStats(); hits != 1 {
		t.Errorf("restarted node counted %d cache hits, want 1", hits)
	}
}

// TestFleetStreamForwarded: SSE streams survive the proxy hop — a
// stream=1 request answered via a forwarding node carries the same bytes
// as one answered by the owner directly.
func TestFleetStreamForwarded(t *testing.T) {
	c := fleettest.New(t, 3, fleettest.Options{})
	body := serveTestdata(t, "stream_wc_ts.req.json")
	var first []byte
	for i := range c.Nodes {
		status, b, hdr, err := tryPost(c.URL(i)+"/v1/estimate?stream=1", body)
		if err != nil || status != http.StatusOK {
			t.Fatalf("node %d: %d %v", i, status, err)
		}
		if ct := hdr.Get("Content-Type"); ct != "text/event-stream" {
			t.Errorf("node %d: Content-Type %q", i, ct)
		}
		if !strings.Contains(string(b), "event: result\n") {
			t.Errorf("node %d: stream has no result frame:\n%s", i, b)
		}
		if first == nil {
			first = b
		} else if !bytes.Equal(b, first) {
			t.Errorf("node %d stream diverged from node 0's bytes", i)
		}
	}
}

// TestFleetNonShardedStaysLocal: health, metrics, workflows, and batch
// requests never forward — each node answers from its own state.
func TestFleetNonShardedStaysLocal(t *testing.T) {
	c := fleettest.New(t, 2, fleettest.Options{})
	for i := range c.Nodes {
		resp, err := http.Get(c.URL(i) + "/healthz")
		if err != nil {
			t.Fatalf("healthz node %d: %v", i, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("healthz node %d: %d", i, resp.StatusCode)
		}
		status, body := post(t, c.URL(i)+"/v1/batch",
			[]byte(`{"scenarios": [{"workflow": "wc"}]}`))
		if status != http.StatusOK {
			t.Errorf("batch node %d: %d %s", i, status, body)
		}
		var out struct {
			Results []json.RawMessage `json:"results"`
		}
		if err := json.Unmarshal(body, &out); err != nil || len(out.Results) != 1 {
			t.Errorf("batch node %d: bad response %s", i, body)
		}
		if v := c.Nodes[i].Server.Metrics().Counter("fleet_forwarded").Value(); v != 0 {
			t.Errorf("node %d forwarded a non-sharded request", i)
		}
	}
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestFleetBodyTooLarge: a fleet node reads at most one byte past the
// body limit, and its 413 — on a request from a client or one a peer
// forwarded — is the solo server's, status and bytes.
func TestFleetBodyTooLarge(t *testing.T) {
	const limit = 64
	big := []byte(`{"workflow":"` + strings.Repeat("x", 4096) + `"}`)
	solo, err := serve.New(serve.Config{MaxBodyBytes: limit})
	if err != nil {
		t.Fatal(err)
	}
	want := httptest.NewRecorder()
	solo.Handler().ServeHTTP(want, httptest.NewRequest(http.MethodPost, "/v1/estimate", bytes.NewReader(big)))
	if want.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("solo status = %d: %s", want.Code, want.Body.Bytes())
	}
	srv, err := serve.New(serve.Config{MaxBodyBytes: limit})
	if err != nil {
		t.Fatal(err)
	}
	node, err := fleet.NewNode(srv, fleet.Config{NodeID: "a", Peers: []string{"a"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, forwarded := range []bool{false, true} {
		body := &countingReader{r: bytes.NewReader(big)}
		req := httptest.NewRequest(http.MethodPost, "/v1/estimate", body)
		if forwarded {
			req.Header.Set(fleet.ForwardedHeader, "peer")
		}
		rec := httptest.NewRecorder()
		node.Handler().ServeHTTP(rec, req)
		if rec.Code != want.Code || !bytes.Equal(rec.Body.Bytes(), want.Body.Bytes()) {
			t.Errorf("forwarded=%v: %d %s, solo %d %s", forwarded, rec.Code, rec.Body.Bytes(), want.Code, want.Body.Bytes())
		}
		if body.n > limit+1 {
			t.Errorf("forwarded=%v: read %d body bytes, limit %d", forwarded, body.n, limit)
		}
	}
}

// testRing builds the ring every node of an n-node fleettest cluster
// routes by: its node IDs at the default virtual-node count.
func testRing(t *testing.T, n int) *fleet.Ring {
	t.Helper()
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("node%d", i)
	}
	r, err := fleet.NewRing(ids, fleet.DefaultVirtualNodes)
	if err != nil {
		t.Fatal(err)
	}
	return r
}
