// Package fleettest is the deterministic in-process multi-node harness
// behind the fleet conformance, fault-injection, and byte-identity
// suites: N real serve.Servers, each fronted by fleet routing, wired into
// one ring over httptest listeners. Everything runs in one process under
// one -race run, and nodes can be killed and restarted (keeping their
// CacheDir) to exercise degraded routing and warm restarts.
package fleettest

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"boedag/internal/fleet"
	"boedag/internal/serve"
)

// Options tunes a test cluster.
type Options struct {
	// ServeConfig seeds every node's serve.Server. Observe.Metrics is
	// cleared per node so each node gets its own registry; set CacheDir
	// per node via CacheDirs instead of here.
	ServeConfig serve.Config
	// CacheDirs, when non-nil, maps node index to that node's CacheDir.
	CacheDirs map[int]string
	// RetryBackoff passes through to fleet.Config.
	RetryBackoff time.Duration
}

// Cluster is a running in-process fleet.
type Cluster struct {
	t     testing.TB
	opts  Options
	dir   *fleet.MutableDirectory
	peers []string
	Nodes []*TestNode
}

// TestNode is one member: the underlying prediction server, its fleet
// wrapper, and the HTTP front end tests talk to.
type TestNode struct {
	ID     string
	Server *serve.Server
	Node   *fleet.Node
	HTTP   *httptest.Server
	alive  bool
}

// New starts a fleet of n nodes and registers cleanup with t.
func New(t testing.TB, n int, opts Options) *Cluster {
	t.Helper()
	if n < 1 {
		t.Fatalf("fleettest: need at least one node")
	}
	c := &Cluster{t: t, opts: opts, dir: fleet.NewMutableDirectory()}
	for i := 0; i < n; i++ {
		c.peers = append(c.peers, nodeID(i))
	}
	for i := 0; i < n; i++ {
		c.Nodes = append(c.Nodes, c.startNode(i))
	}
	t.Cleanup(c.Close)
	return c
}

func nodeID(i int) string { return fmt.Sprintf("node%d", i) }

// startNode builds one node and publishes its address in the directory.
func (c *Cluster) startNode(i int) *TestNode {
	c.t.Helper()
	cfg := c.opts.ServeConfig
	cfg.Observe.Metrics = nil // each node gets a private registry
	cfg.CacheDir = ""
	if dir, ok := c.opts.CacheDirs[i]; ok {
		cfg.CacheDir = dir
	}
	srv, err := serve.New(cfg)
	if err != nil {
		c.t.Fatalf("fleettest: serve.New(node %d): %v", i, err)
	}
	node, err := fleet.NewNode(srv, fleet.Config{
		NodeID:       nodeID(i),
		Peers:        c.peers,
		Directory:    c.dir,
		RetryBackoff: c.opts.RetryBackoff,
	})
	if err != nil {
		c.t.Fatalf("fleettest: fleet.NewNode(node %d): %v", i, err)
	}
	ts := httptest.NewServer(node.Handler())
	c.dir.Set(nodeID(i), ts.URL)
	return &TestNode{ID: nodeID(i), Server: srv, Node: node, HTTP: ts, alive: true}
}

// URL returns node i's base URL.
func (c *Cluster) URL(i int) string { return c.Nodes[i].HTTP.URL }

// URLs returns every live node's base URL.
func (c *Cluster) URLs() []string {
	var out []string
	for _, n := range c.Nodes {
		if n.alive {
			out = append(out, n.HTTP.URL)
		}
	}
	return out
}

// Kill stops node i abruptly: in-flight and future connections fail at
// the transport level, exactly like a crashed peer. The directory still
// points at the dead address, so forwards to it error and take the
// fallback path.
func (c *Cluster) Kill(i int) {
	n := c.Nodes[i]
	if !n.alive {
		return
	}
	n.HTTP.CloseClientConnections()
	n.HTTP.Close()
	n.alive = false
}

// Stop drains node i gracefully — snapshotting its cache when it has a
// CacheDir — then closes its front end. Use before Restart to model a
// clean rolling restart.
func (c *Cluster) Stop(i int) {
	c.t.Helper()
	n := c.Nodes[i]
	if !n.alive {
		return
	}
	if err := n.Server.SaveCacheSnapshot(); err != nil {
		c.t.Fatalf("fleettest: snapshot node %d: %v", i, err)
	}
	n.HTTP.Close()
	n.alive = false
}

// Restart brings node i back: a fresh serve.Server (restoring its
// CacheDir when one was configured), fresh fleet wrapper, and a new
// listener published to the shared directory. Peers reach it again
// without reconfiguration — the Directory indirection is the point.
func (c *Cluster) Restart(i int) *TestNode {
	c.t.Helper()
	if c.Nodes[i].alive {
		c.t.Fatalf("fleettest: node %d is still running", i)
	}
	c.Nodes[i] = c.startNode(i)
	return c.Nodes[i]
}

// Close shuts every live node down.
func (c *Cluster) Close() {
	for i, n := range c.Nodes {
		if n.alive {
			n.HTTP.Close()
			c.Nodes[i].alive = false
		}
	}
}

// Do posts body to node i's path and returns status, response bytes, and
// headers — no testing assertions, so fault tests can expect failures.
func (c *Cluster) Do(i int, path string, body []byte) (int, []byte, http.Header, error) {
	return post(c.URL(i)+path, body)
}
