// Package tpch models the TPC-H benchmark as it appears in the paper's
// evaluation: the eight-table schema generated at 80 GB, and the 22
// queries compiled — the way Hive compiles HiveQL — into DAG workflows of
// MapReduce jobs with cardinality-derived data volumes. The job counts
// and DAG shapes follow the published Hive-on-MapReduce plans the paper
// used (e.g. Q21 compiles to 9 jobs); data volumes per job come from the
// schema statistics and per-operator selectivities below.
package tpch

import (
	"fmt"

	"boedag/internal/units"
)

// Table identifies one of the eight TPC-H base tables.
type Table string

// The TPC-H tables.
const (
	Lineitem Table = "lineitem"
	Orders   Table = "orders"
	Partsupp Table = "partsupp"
	Part     Table = "part"
	Customer Table = "customer"
	Supplier Table = "supplier"
	Nation   Table = "nation"
	Region   Table = "region"
)

// tableStats holds per-scale-factor statistics: bytes and rows of each
// table per unit scale factor (SF 1 ≈ 1 GB total), from the TPC-H
// specification's dbgen output sizes.
var tableStats = map[Table]struct {
	bytesPerSF units.Bytes
	rowsPerSF  int64
}{
	Lineitem: {759 * units.MB, 6_001_215},
	Orders:   {171 * units.MB, 1_500_000},
	Partsupp: {118 * units.MB, 800_000},
	Part:     {24 * units.MB, 200_000},
	Customer: {24 * units.MB, 150_000},
	Supplier: {1400 * units.KB, 10_000},
	Nation:   {2 * units.KB, 25},
	Region:   {1 * units.KB, 5},
}

// Schema is a TPC-H database instance at a given scale factor.
type Schema struct {
	// ScaleFactor is the dbgen -s value; total size ≈ ScaleFactor GB.
	ScaleFactor float64
}

// PaperSchema returns the paper's instance: "we generate 80 GB input for
// 8 input tables" (§V-A), i.e. scale factor 80.
func PaperSchema() Schema { return Schema{ScaleFactor: 80} }

// Bytes returns the on-disk size of a table at this scale factor.
// Nation and region do not scale with SF; everything else does.
func (s Schema) Bytes(t Table) units.Bytes {
	st, ok := tableStats[t]
	if !ok {
		return 0
	}
	if t == Nation || t == Region {
		return st.bytesPerSF
	}
	return st.bytesPerSF.Scale(s.ScaleFactor)
}

// Rows returns the row count of a table at this scale factor.
func (s Schema) Rows(t Table) int64 {
	st, ok := tableStats[t]
	if !ok {
		return 0
	}
	if t == Nation || t == Region {
		return st.rowsPerSF
	}
	return int64(float64(st.rowsPerSF) * s.ScaleFactor)
}

// TotalBytes is the size of the whole instance.
func (s Schema) TotalBytes() units.Bytes {
	var sum units.Bytes
	for t := range tableStats {
		sum += s.Bytes(t)
	}
	return sum
}

// Validate rejects nonsensical scale factors.
func (s Schema) Validate() error {
	if s.ScaleFactor <= 0 {
		return fmt.Errorf("tpch: scale factor must be positive, got %g", s.ScaleFactor)
	}
	return nil
}
