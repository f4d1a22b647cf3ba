package fleet_test

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"testing"

	"boedag/internal/fleet/fleettest"
)

// BenchmarkFleetEstimate measures one request through the fleet tier: a
// 3-node in-process ring, requests round-robined across nodes, a small
// scenario mix so the steady state exercises shard routing, single-hop
// proxying, and the owner's cache rather than the estimator itself. It
// is in the regression gate's set (hack/benchsamples.sh) so proxy
// overhead regressions trip the gate.
func BenchmarkFleetEstimate(b *testing.B) {
	c := fleettest.New(b, 3, fleettest.Options{})
	var bodies [][]byte
	for i := 1; i <= 8; i++ {
		bodies = append(bodies,
			[]byte(fmt.Sprintf(`{"workflow": "wc+ts", "options": {"micro_gb": %d}}`, i)))
	}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}
	urls := c.URLs()
	// Prime every scenario so the measured loop is the routed-hit path.
	for i, body := range bodies {
		if err := benchPost(client, urls[i%len(urls)], body); err != nil {
			b.Fatalf("prime: %v", err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := benchPost(client, urls[i%len(urls)], bodies[i%len(bodies)]); err != nil {
			b.Fatalf("request %d: %v", i, err)
		}
	}
}

func benchPost(client *http.Client, base string, body []byte) error {
	resp, err := client.Post(base+"/v1/estimate", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return nil
}
