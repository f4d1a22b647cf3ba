package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"boedag/internal/fleet"
	"boedag/internal/serve"
)

// system is one booted system under test: serve.Servers — fronted by
// fleet nodes for fleet-hot — each on its own loopback listener.
type system struct {
	servers []*serve.Server
	// targets are the base URLs; the window sends request i to
	// targets[i mod len(targets)].
	targets []string
	https   []*http.Server
	done    []chan error
	// bootTime is how long serve.New took, summed over the servers (for
	// serve-cold that is the cachestore restore plus construction).
	bootTime time.Duration
}

// boot starts n servers built from cfg — as a fleet of n nodes sharding
// by plan key when asFleet is set — and waits until each answers
// /readyz. The instruments of a traced run ride along in in (nil when
// untraced).
func boot(client *http.Client, n int, cfg serve.Config, asFleet bool, in *instr) (*system, error) {
	sys := &system{}
	dir := fleet.NewMutableDirectory()
	peers := make([]string, n)
	for i := range peers {
		peers[i] = fmt.Sprintf("node%d", i)
	}
	for i, id := range peers {
		c := cfg
		t0 := time.Now()
		if in != nil {
			c.Observe.Tracer = in.nodeTracer(i, t0)
		}
		srv, err := serve.New(c)
		sys.bootTime += time.Since(t0)
		if err != nil {
			sys.close()
			return nil, err
		}
		var handler http.Handler = srv.Handler()
		if asFleet {
			fc := fleet.Config{NodeID: id, Peers: peers, Directory: dir}
			if in != nil {
				fc.Client = &http.Client{Timeout: 30 * time.Second, Transport: in.fwd}
			}
			node, err := fleet.NewNode(srv, fc)
			if err != nil {
				sys.close()
				return nil, err
			}
			handler = node.Handler()
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			sys.close()
			return nil, err
		}
		hs := &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
		done := make(chan error, 1)
		go func() { done <- hs.Serve(ln) }()
		url := "http://" + ln.Addr().String()
		dir.Set(id, url)
		sys.servers = append(sys.servers, srv)
		sys.targets = append(sys.targets, url)
		sys.https = append(sys.https, hs)
		sys.done = append(sys.done, done)
	}
	for _, url := range sys.targets {
		resp, err := client.Get(url + "/readyz")
		if err != nil {
			sys.close()
			return nil, err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			sys.close()
			return nil, fmt.Errorf("%s/readyz: status %d", url, resp.StatusCode)
		}
	}
	return sys, nil
}

// close stops every listener and waits for each Serve loop to return.
func (s *system) close() {
	for i, hs := range s.https {
		hs.Close()
		if err := <-s.done[i]; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "perfbench: server %d: %v\n", i, err)
		}
	}
	s.https, s.done = nil, nil
}

// newClient returns the load client: one idle-connection pool sized to
// the closed loop's connections per target.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: conns + 2,
			DisableCompression:  true,
		},
	}
}

// post sends one request and reads the whole response into buf.
func post(client *http.Client, url string, body []byte, buf *bytes.Buffer) (int, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}
