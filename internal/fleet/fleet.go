package fleet

import (
	"bytes"
	"fmt"
	"io"
	"maps"
	"net/http"
	"slices"
	"sort"
	"sync"
	"time"

	"boedag/internal/obs"
	"boedag/internal/serve"
)

// ForwardedHeader marks a request as already forwarded once. A node
// receiving it always serves locally — forwarding is single-hop by
// construction, so a stale or disagreeing ring can never loop a request.
const ForwardedHeader = "X-Boedag-Forwarded"

// Directory resolves node IDs to base URLs ("http://host:port"). The
// fleettest harness backs it with a mutable map so a restarted node can
// come back under a fresh address; boedagd uses a StaticDirectory parsed
// from -peers.
type Directory interface {
	URL(nodeID string) (string, bool)
}

// StaticDirectory is a fixed nodeID → base URL map.
type StaticDirectory map[string]string

// URL implements Directory.
func (d StaticDirectory) URL(nodeID string) (string, bool) {
	u, ok := d[nodeID]
	return u, ok
}

// MutableDirectory is a Directory whose entries can change at runtime —
// the seam that lets a test (or a future membership protocol) move a node
// to a new address without rebuilding the fleet.
type MutableDirectory struct {
	mu sync.RWMutex
	m  map[string]string
}

// NewMutableDirectory returns an empty mutable directory.
func NewMutableDirectory() *MutableDirectory {
	return &MutableDirectory{m: make(map[string]string)}
}

// Set maps nodeID to baseURL.
func (d *MutableDirectory) Set(nodeID, baseURL string) {
	d.mu.Lock()
	d.m[nodeID] = baseURL
	d.mu.Unlock()
}

// URL implements Directory.
func (d *MutableDirectory) URL(nodeID string) (string, bool) {
	d.mu.RLock()
	u, ok := d.m[nodeID]
	d.mu.RUnlock()
	return u, ok
}

// maxHops bounds how many owners a sharded request tries before the
// node computes it locally: the owner and one fallback.
const maxHops = 2

// Config describes one fleet node.
type Config struct {
	// NodeID is this node's identity on the ring (required).
	NodeID string
	// Peers are all fleet node IDs, this node included (required). Order
	// does not matter; every replica must agree on the set.
	Peers []string
	// Directory resolves peer IDs to URLs (required for fleets larger
	// than one node).
	Directory Directory
	// RetryBackoff is the pause before each retry after a failed forward
	// (default 25ms).
	RetryBackoff time.Duration
	// Client issues forwarded requests (default: a dedicated client with
	// a 30s timeout).
	Client *http.Client
}

func (c Config) withDefaults() (Config, error) {
	if c.NodeID == "" {
		return c, fmt.Errorf("fleet: NodeID is required")
	}
	if len(c.Peers) == 0 {
		return c, fmt.Errorf("fleet: Peers is required")
	}
	if !slices.Contains(c.Peers, c.NodeID) {
		return c, fmt.Errorf("fleet: NodeID %q is not in Peers", c.NodeID)
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 25 * time.Millisecond
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 30 * time.Second}
	}
	return c, nil
}

// Node fronts one serve.Server with shard routing: requests whose shard
// key this node owns (and every non-sharded request) go to the local
// server; the rest are proxied to the owning peer, responses copied
// byte-for-byte so a fleet answer is indistinguishable from a single-node
// answer.
type Node struct {
	cfg  Config
	ring *Ring
	srv  *serve.Server

	localServed, forwarded, received  *obs.Counter
	forwardRetries, fallbackLocal     *obs.Counter
	forwardErrors, unroutableRequests *obs.Counter
}

// NewNode wraps srv in fleet routing.
func NewNode(srv *serve.Server, cfg Config) (*Node, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	peers := append([]string(nil), cfg.Peers...)
	sort.Strings(peers) // ring identity is the set, not the flag order
	ring, err := NewRing(peers, DefaultVirtualNodes)
	if err != nil {
		return nil, err
	}
	// The fleet_* counters live in the server's registry, so they show up
	// in its /metrics.
	reg := srv.Metrics()
	n := &Node{
		cfg:  cfg,
		ring: ring,
		srv:  srv,

		localServed:        reg.Counter("fleet_local_served"),
		forwarded:          reg.Counter("fleet_forwarded"),
		received:           reg.Counter("fleet_received"),
		forwardRetries:     reg.Counter("fleet_forward_retries"),
		fallbackLocal:      reg.Counter("fleet_fallback_local"),
		forwardErrors:      reg.Counter("fleet_forward_errors"),
		unroutableRequests: reg.Counter("fleet_unroutable"),
	}
	obs.SetMetricHelp("fleet_local_served", "Sharded requests this node owned and served locally.")
	obs.SetMetricHelp("fleet_forwarded", "Sharded requests proxied to their owning peer.")
	obs.SetMetricHelp("fleet_received", "Forwarded requests received from peers (hop header present).")
	obs.SetMetricHelp("fleet_forward_retries", "Forward attempts retried against a fallback owner.")
	obs.SetMetricHelp("fleet_fallback_local", "Sharded requests computed locally because every owner was unreachable.")
	obs.SetMetricHelp("fleet_forward_errors", "Forward attempts that failed at the transport level.")
	obs.SetMetricHelp("fleet_unroutable", "Sharded-path requests served locally because no shard key could be derived.")
	return n, nil
}

// Handler returns the fleet front end: shard routing over the wrapped
// server's own handler.
func (n *Node) Handler() http.Handler {
	local := n.srv.Handler()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !n.srv.Sharded(r) {
			local.ServeHTTP(w, r)
			return
		}
		// Read one byte past the body limit: enough to know a body will
		// not shard, without buffering an oversized one. The server
		// closes r.Body.
		body, err := io.ReadAll(io.LimitReader(r.Body, n.srv.MaxBodyBytes()+1))
		if err != nil {
			http.Error(w, "read body: "+err.Error(), http.StatusBadRequest)
			return
		}
		// lr serves the request locally without decoding the body again.
		key, lr, ok := n.srv.Prepare(r, body)
		switch {
		case r.Header.Get(ForwardedHeader) != "":
			// Already forwarded once: serve here no matter what our ring
			// says, so disagreement can never loop.
			n.received.Inc()
			local.ServeHTTP(w, lr)
			return
		case !ok:
			// No shard key — invalid bodies answer the same 4xx everywhere.
			n.unroutableRequests.Inc()
			local.ServeHTTP(w, lr)
			return
		}
		owners := n.ring.Owners(key, maxHops)
		for i, owner := range owners {
			if owner == n.cfg.NodeID {
				n.localServed.Inc()
				local.ServeHTTP(w, lr)
				return
			}
			if i > 0 {
				n.forwardRetries.Inc()
				t := time.NewTimer(n.cfg.RetryBackoff)
				select {
				case <-r.Context().Done():
					// The client is gone: no retry, no local compute.
					t.Stop()
					return
				case <-t.C:
				}
			}
			if n.forward(w, r, owner, body) {
				n.forwarded.Inc()
				return
			}
			n.forwardErrors.Inc()
		}
		// Every owner unreachable: degrade to local compute. Slower and
		// cache-cold, but the request still gets its answer.
		n.fallbackLocal.Inc()
		local.ServeHTTP(w, lr)
	})
}

// forward proxies the request to the peer and streams the response back
// verbatim. Returns false — retry — only when no response was produced
// (unresolvable peer or transport failure before response headers); once
// a peer answers, its response is authoritative, whatever the status.
func (n *Node) forward(w http.ResponseWriter, r *http.Request, peer string, body []byte) bool {
	base, ok := n.cfg.Directory.URL(peer)
	if !ok {
		return false
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, base+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		return false
	}
	req.Header = r.Header.Clone()
	req.Header.Set(ForwardedHeader, n.cfg.NodeID)
	resp, err := n.cfg.Client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	maps.Copy(w.Header(), resp.Header)
	w.WriteHeader(resp.StatusCode)
	copyFlushing(w, resp.Body)
	return true
}

// forwardBufs recycles copyFlushing's relay buffers across forwarded
// responses; a pointer to an array goes in and out of the pool without
// allocating.
var forwardBufs = sync.Pool{New: func() any { return new([32 * 1024]byte) }}

// copyFlushing relays the peer's response body, flushing after every read
// so SSE frames stream through the proxy instead of buffering until EOF.
func copyFlushing(w http.ResponseWriter, r io.Reader) {
	flusher, _ := w.(http.Flusher)
	bp := forwardBufs.Get().(*[32 * 1024]byte)
	defer forwardBufs.Put(bp)
	buf := bp[:]
	for {
		nr, err := r.Read(buf)
		if nr > 0 {
			if _, werr := w.Write(buf[:nr]); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}
