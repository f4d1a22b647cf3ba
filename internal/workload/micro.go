package workload

import "boedag/internal/units"

// Default sizing shared by the micro-benchmarks (paper §V-A: 128 MB HDFS
// splits, one reduce wave on the eleven-node cluster).
const (
	defaultSplit = 128 * units.MB
	microReduces = 66 // 6 cores × 11 nodes: one full reduce wave
)

// WordCount returns the profile of the HiBench Word Count job ("WC" in
// Table I): compression on, three replicas, CPU-bound. The map function
// tokenizes text (expensive per byte) and a combiner collapses the output
// to a small fraction of the input.
func WordCount(input units.Bytes) JobProfile {
	return JobProfile{
		Name:              "WC",
		InputBytes:        input,
		SplitBytes:        defaultSplit,
		ReduceTasks:       microReduces,
		MapSelectivity:    0.22, // combiner output / input
		ReduceSelectivity: 0.45, // counts per distinct word
		MapCPUCost:        3.0,  // tokenize + hash per byte
		ReduceCPUCost:     1.2,
		Compression:       Compression{Enabled: true, Ratio: 0.35, CPUOverhead: 0.4},
		Replicas:          3,
		SortBufferBytes:   100 * units.MB,
		SkewCV:            0.08,
	}
}

// teraSort is the shared shape of all TeraSort variants: identity map
// (selectivity 1), identity reduce, modest CPU cost dominated by the
// comparator, large shuffles.
func teraSort(name string, input units.Bytes, replicas int, comp Compression) JobProfile {
	return JobProfile{
		Name:              name,
		InputBytes:        input,
		SplitBytes:        defaultSplit,
		ReduceTasks:       microReduces,
		MapSelectivity:    1.0,
		ReduceSelectivity: 1.0,
		MapCPUCost:        1.1, // partition + serialize
		ReduceCPUCost:     1.0, // merge + write
		Compression:       comp,
		Replicas:          replicas,
		SortBufferBytes:   100 * units.MB,
		SkewCV:            0.06,
	}
}

// TeraSort returns the "TS" row of Table I: no compression, one replica;
// the map stage is disk-bound and the shuffle network-bound.
func TeraSort(input units.Bytes) JobProfile {
	return teraSort("TS", input, 1, Compression{})
}

// TeraSortCompressed returns the "TSC" row of Table I: compression on,
// one replica, which shifts the bottleneck to CPU.
func TeraSortCompressed(input units.Bytes) JobProfile {
	return teraSort("TSC", input, 1,
		Compression{Enabled: true, Ratio: 0.4, CPUOverhead: 0.6})
}

// TeraSort2R returns the two-replica variant used by Table III's WC-TS2R
// workflow.
func TeraSort2R(input units.Bytes) JobProfile {
	return teraSort("TS2R", input, 2, Compression{})
}

// TeraSort3R returns the "TS3R" row of Table I: no compression, three
// replicas, which makes the reduce stage network-bound on HDFS writes.
func TeraSort3R(input units.Bytes) JobProfile {
	return teraSort("TS3R", input, 3, Compression{})
}
