package cluster

import (
	"strings"
	"testing"

	"boedag/internal/units"
)

func validNode() NodeSpec {
	return NodeSpec{
		Cores:          6,
		CoreThroughput: 50 * units.MBps,
		Disks:          2,
		DiskReadRate:   100 * units.MBps,
		DiskWriteRate:  100 * units.MBps,
		NetworkRate:    125 * units.MBps,
		MemoryMB:       32 * 1024,
	}
}

func TestNodeValidateRejectsEachField(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*NodeSpec)
		want   string
	}{
		{"no cores", func(n *NodeSpec) { n.Cores = 0 }, "core"},
		{"no core throughput", func(n *NodeSpec) { n.CoreThroughput = 0 }, "throughput"},
		{"no disks", func(n *NodeSpec) { n.Disks = 0 }, "disk"},
		{"no disk read", func(n *NodeSpec) { n.DiskReadRate = 0 }, "disk rates"},
		{"negative disk write", func(n *NodeSpec) { n.DiskWriteRate = -1 }, "disk rates"},
		{"no network", func(n *NodeSpec) { n.NetworkRate = 0 }, "network"},
		{"no memory", func(n *NodeSpec) { n.MemoryMB = 0 }, "memory"},
	}
	for _, c := range cases {
		n := validNode()
		c.mutate(&n)
		err := n.Validate()
		if err == nil {
			t.Errorf("%s: Validate() = nil, want error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
	if err := validNode().Validate(); err != nil {
		t.Errorf("valid node rejected: %v", err)
	}
}

func TestSpecValidate(t *testing.T) {
	s := Spec{Nodes: 0, Node: validNode()}
	if s.Validate() == nil {
		t.Error("zero nodes accepted")
	}
	s = Spec{Nodes: 1, SlotsPerNode: -1, Node: validNode()}
	if s.Validate() == nil {
		t.Error("negative slots accepted")
	}
	s = Spec{Nodes: 3, Node: validNode()}
	if err := s.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

func TestNodeCapacity(t *testing.T) {
	n := validNode()
	cases := []struct {
		r    Resource
		want units.Rate
	}{
		{CPU, 300 * units.MBps},       // 6 cores × 50
		{DiskRead, 200 * units.MBps},  // 2 disks × 100
		{DiskWrite, 200 * units.MBps}, // 2 disks × 100
		{Network, 125 * units.MBps},
	}
	for _, c := range cases {
		if got := n.Capacity(c.r); got != c.want {
			t.Errorf("Capacity(%s) = %v, want %v", c.r, got, c.want)
		}
	}
	if got := n.Capacity(Resource(99)); got != 0 {
		t.Errorf("Capacity(bogus) = %v, want 0", got)
	}
}

func TestPerTaskCap(t *testing.T) {
	n := validNode()
	if got := n.PerTaskCap(CPU); got != 50*units.MBps {
		t.Errorf("PerTaskCap(CPU) = %v, want one core (50MB/s)", got)
	}
	if got := n.PerTaskCap(DiskRead); got != n.Capacity(DiskRead) {
		t.Errorf("PerTaskCap(DiskRead) = %v, want full device %v", got, n.Capacity(DiskRead))
	}
	if got := n.PerTaskCap(Network); got != n.Capacity(Network) {
		t.Errorf("PerTaskCap(Network) = %v, want line rate", got)
	}
}

func TestSpecTotals(t *testing.T) {
	s := Spec{Nodes: 11, SlotsPerNode: 12, Node: validNode()}
	if got := s.TotalSlots(); got != 132 {
		t.Errorf("TotalSlots = %d, want 132", got)
	}
	if got := s.TotalMemoryMB(); got != 11*32*1024 {
		t.Errorf("TotalMemoryMB = %d, want %d", got, 11*32*1024)
	}
	if got := s.TotalCapacity(CPU); got != 11*300*units.MBps {
		t.Errorf("TotalCapacity(CPU) = %v", got)
	}
	// Slots default to cores when unset.
	s.SlotsPerNode = 0
	if got := s.TotalSlots(); got != 66 {
		t.Errorf("TotalSlots (default) = %d, want 66", got)
	}
}

func TestResourceString(t *testing.T) {
	want := map[Resource]string{
		CPU: "cpu", DiskRead: "disk-read", DiskWrite: "disk-write", Network: "network",
	}
	for r, s := range want {
		if r.String() != s {
			t.Errorf("%d.String() = %q, want %q", r, r.String(), s)
		}
	}
	if got := Resource(42).String(); !strings.Contains(got, "42") {
		t.Errorf("unknown resource String() = %q", got)
	}
}

func TestResourcesListsAll(t *testing.T) {
	rs := Resources()
	if len(rs) != NumResources {
		t.Fatalf("Resources() has %d entries, want %d", len(rs), NumResources)
	}
	seen := map[Resource]bool{}
	for _, r := range rs {
		if seen[r] {
			t.Errorf("duplicate resource %s", r)
		}
		seen[r] = true
	}
}

func TestPaperCluster(t *testing.T) {
	s := PaperCluster()
	if err := s.Validate(); err != nil {
		t.Fatalf("paper cluster invalid: %v", err)
	}
	if s.Nodes != 11 {
		t.Errorf("paper cluster has %d nodes, want 11 (§V-A)", s.Nodes)
	}
	if s.Node.Cores != 6 {
		t.Errorf("paper node has %d cores, want 6", s.Node.Cores)
	}
	if s.Node.Disks != 2 {
		t.Errorf("paper node has %d disks, want 2", s.Node.Disks)
	}
	if s.Node.MemoryMB != 32*1024 {
		t.Errorf("paper node has %d MB memory, want 32 GB", s.Node.MemoryMB)
	}
	if s.TotalSlots() <= s.Node.Cores*s.Nodes {
		t.Error("paper cluster should over-subscribe slots beyond cores for the Δ=12 sweep")
	}
}

func TestSingleNodeAndExampleNode(t *testing.T) {
	s := SingleNode(ExampleNode())
	if err := s.Validate(); err != nil {
		t.Fatalf("example node invalid: %v", err)
	}
	if s.Nodes != 1 {
		t.Errorf("SingleNode has %d nodes", s.Nodes)
	}
	// Figure 4's numbers: aggregate read 500 MB/s, network 100 MB/s.
	if got := s.TotalCapacity(DiskRead); got != 500*units.MBps {
		t.Errorf("example read capacity = %v, want 500MB/s", got)
	}
	if got := s.TotalCapacity(Network); got != 100*units.MBps {
		t.Errorf("example network capacity = %v, want 100MB/s", got)
	}
}
