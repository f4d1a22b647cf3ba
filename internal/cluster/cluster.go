// Package cluster describes the computing resources a DAG workflow runs
// on: nodes with CPU cores, disks, memory, and network links. All cost
// models in this repository consume the capacities declared here; the
// discrete-event simulator shares them fairly among running tasks.
//
// The default configuration, PaperCluster, reproduces the hardware of the
// paper's evaluation (§V-A): eleven servers, each with 6 physical cores at
// 2.4 GHz, two 7.2k-RPM disks of 500 GB, 32 GB of memory, and a 1 Gbps
// Ethernet switch.
package cluster

import (
	"errors"
	"fmt"

	"boedag/internal/units"
)

// Resource identifies one class of preemptable capacity on a node. The
// paper's resource usage model (§III-A2) treats disk and network as always
// preemptable and CPU as preemptable once tasks outnumber cores; memory is
// not preemptable (it gates admission instead, via the scheduler).
type Resource int

const (
	// CPU is per-core tuple-processing bandwidth.
	CPU Resource = iota
	// DiskRead is the aggregate sequential read bandwidth of a node's disks.
	DiskRead
	// DiskWrite is the aggregate sequential write bandwidth of a node's disks.
	DiskWrite
	// Network is the node's NIC bandwidth (full duplex modelled as one pool,
	// matching the paper's single "transfer" operation).
	Network
	numResources
)

// NumResources is the count of resource classes, for sizing dense arrays.
const NumResources = int(numResources)

// String returns the conventional short name for the resource.
func (r Resource) String() string {
	switch r {
	case CPU:
		return "cpu"
	case DiskRead:
		return "disk-read"
	case DiskWrite:
		return "disk-write"
	case Network:
		return "network"
	}
	return fmt.Sprintf("resource(%d)", int(r))
}

// Resources lists every resource class, in declaration order.
func Resources() []Resource {
	return []Resource{CPU, DiskRead, DiskWrite, Network}
}

// NodeSpec declares the capacities of one server.
type NodeSpec struct {
	// Cores is the number of physical CPU cores available to tasks.
	Cores int
	// CoreThroughput is the tuple-processing bandwidth of a single core for
	// a unit-cost computation. Job profiles scale it by their per-byte CPU
	// cost factor.
	CoreThroughput units.Rate
	// Disks is the number of independent disk spindles.
	Disks int
	// DiskReadRate and DiskWriteRate are per-spindle sequential bandwidths.
	DiskReadRate  units.Rate
	DiskWriteRate units.Rate
	// NetworkRate is the NIC line rate.
	NetworkRate units.Rate
	// MemoryMB is the physical memory the scheduler may hand to containers.
	MemoryMB int
}

// Validate reports the first implausible capacity, if any.
func (n NodeSpec) Validate() error {
	switch {
	case n.Cores <= 0:
		return errors.New("cluster: node needs at least one core")
	case n.CoreThroughput <= 0:
		return errors.New("cluster: core throughput must be positive")
	case n.Disks <= 0:
		return errors.New("cluster: node needs at least one disk")
	case n.DiskReadRate <= 0 || n.DiskWriteRate <= 0:
		return errors.New("cluster: disk rates must be positive")
	case n.NetworkRate <= 0:
		return errors.New("cluster: network rate must be positive")
	case n.MemoryMB <= 0:
		return errors.New("cluster: memory must be positive")
	}
	return nil
}

// Capacity returns the node's aggregate capacity for one resource class.
// For CPU it is cores × per-core throughput: the fluid pool that the
// progressive-filling allocator shares among tasks (a single task is still
// capped to one core's worth by the per-task ceiling, see PerTaskCap).
func (n NodeSpec) Capacity(r Resource) units.Rate {
	switch r {
	case CPU:
		return n.CoreThroughput * units.Rate(n.Cores)
	case DiskRead:
		return n.DiskReadRate * units.Rate(n.Disks)
	case DiskWrite:
		return n.DiskWriteRate * units.Rate(n.Disks)
	case Network:
		return n.NetworkRate
	}
	return 0
}

// PerTaskCap returns the most of resource r a single task can use even
// with no contention. CPU is capped at one core (a task is one thread in
// the paper's execution model); disks and network allow a single stream to
// saturate the device.
func (n NodeSpec) PerTaskCap(r Resource) units.Rate {
	if r == CPU {
		return n.CoreThroughput
	}
	return n.Capacity(r)
}

// Spec declares a whole cluster. Nodes are homogeneous, as in the paper's
// testbed; heterogeneous clusters can be modelled by running the models
// per node group.
type Spec struct {
	Nodes int
	Node  NodeSpec
	// SlotsPerNode caps simultaneously running tasks per node (the classic
	// MapReduce "task slots"); 0 means cores-bound only.
	SlotsPerNode int
}

// Validate reports the first invalid field, if any.
func (s Spec) Validate() error {
	if s.Nodes <= 0 {
		return errors.New("cluster: need at least one node")
	}
	if s.SlotsPerNode < 0 {
		return errors.New("cluster: slots per node cannot be negative")
	}
	return s.Node.Validate()
}

// TotalCapacity returns the cluster-wide capacity of a resource class.
func (s Spec) TotalCapacity(r Resource) units.Rate {
	return s.Node.Capacity(r) * units.Rate(s.Nodes)
}

// TotalSlots returns the cluster-wide cap on simultaneously running tasks.
func (s Spec) TotalSlots() int {
	per := s.SlotsPerNode
	if per == 0 {
		per = s.Node.Cores
	}
	return per * s.Nodes
}

// TotalMemoryMB returns the cluster-wide schedulable memory.
func (s Spec) TotalMemoryMB() int { return s.Node.MemoryMB * s.Nodes }

// PaperCluster returns the evaluation cluster of the paper (§V-A): eleven
// identical servers — 6 cores at 2.4 GHz, 2 × 500 GB 7.2k-RPM disks, 32 GB
// RAM — on a 1 Gbps switch. Derived throughputs follow the figures the
// paper itself uses in its worked example (§III-A3): ~125 MB/s network
// line rate, ~100 MB/s sequential bandwidth per 7.2k spindle, and a
// per-core processing bandwidth of 50 MB/s for a unit-cost computation.
// SlotsPerNode is 12 — twice the physical cores, the classic Hadoop
// over-subscription that lets the paper sweep the degree of parallelism
// to 12 tasks per node and observe the CPU saturating past 6.
func PaperCluster() Spec {
	return Spec{
		Nodes:        11,
		SlotsPerNode: 12,
		Node: NodeSpec{
			Cores:          6,
			CoreThroughput: 50 * units.MBps,
			Disks:          2,
			DiskReadRate:   100 * units.MBps,
			DiskWriteRate:  100 * units.MBps,
			NetworkRate:    125 * units.MBps,
			MemoryMB:       32 * 1024,
		},
	}
}

// SingleNode returns a one-node cluster with the given spec, used by the
// worked example of the paper (Figure 4) and by unit tests.
func SingleNode(node NodeSpec) Spec {
	return Spec{Nodes: 1, Node: node}
}

// ExampleNode reproduces the node of the paper's Figure 4 worked example:
// aggregate read 500 MB/s, network 100 MB/s, and 50 MB/s of per-core
// compute, with enough cores that five tasks never queue on CPU.
func ExampleNode() NodeSpec {
	return NodeSpec{
		Cores:          8,
		CoreThroughput: 50 * units.MBps,
		Disks:          5,
		DiskReadRate:   100 * units.MBps,
		DiskWriteRate:  100 * units.MBps,
		NetworkRate:    100 * units.MBps,
		MemoryMB:       32 * 1024,
	}
}
