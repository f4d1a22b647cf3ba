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

// tableBytes holds each table's size per unit scale factor (SF 1 ≈ 1 GB
// total), from the TPC-H specification's dbgen output sizes.
var tableBytes = map[Table]units.Bytes{
	Lineitem: 759 * units.MB,
	Orders:   171 * units.MB,
	Partsupp: 118 * units.MB,
	Part:     24 * units.MB,
	Customer: 24 * units.MB,
	Supplier: 1400 * units.KB,
	Nation:   2 * units.KB,
	Region:   1 * units.KB,
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
	perSF, ok := tableBytes[t]
	if !ok {
		return 0
	}
	if t == Nation || t == Region {
		return perSF
	}
	return perSF.Scale(s.ScaleFactor)
}

// TotalBytes is the size of the whole instance.
func (s Schema) TotalBytes() units.Bytes {
	var sum units.Bytes
	for t := range tableBytes {
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
