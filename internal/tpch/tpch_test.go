package tpch

import (
	"math"

	"boedag/internal/dag"
	"strings"
	"testing"
	"testing/quick"

	"boedag/internal/units"
)

func TestSchemaValidate(t *testing.T) {
	if err := (Schema{ScaleFactor: 80}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Schema{}).Validate(); err == nil {
		t.Fatal("zero scale factor accepted")
	}
	if err := (Schema{ScaleFactor: -2}).Validate(); err == nil {
		t.Fatal("negative scale factor accepted")
	}
}

func TestPaperSchemaIs80GB(t *testing.T) {
	s := PaperSchema()
	if s.ScaleFactor != 80 {
		t.Errorf("scale factor = %v, want 80 (§V-A)", s.ScaleFactor)
	}
	total := s.TotalBytes()
	if total < 75*units.GB || total > 95*units.GB {
		t.Errorf("total size = %v, want ≈ 80 GB", total)
	}
}

func TestTableSizesScale(t *testing.T) {
	one := Schema{ScaleFactor: 1}
	ten := Schema{ScaleFactor: 10}
	if got := ten.Bytes(Lineitem); math.Abs(float64(got-one.Bytes(Lineitem)*10)) > 1 {
		t.Errorf("lineitem does not scale: %v vs 10×%v", got, one.Bytes(Lineitem))
	}
	// Nation and region are fixed-size.
	if one.Bytes(Nation) != ten.Bytes(Nation) {
		t.Error("nation scaled with SF")
	}
	if one.Bytes(Region) != ten.Bytes(Region) {
		t.Error("region scaled with SF")
	}
	if got := one.Bytes(Table("bogus")); got != 0 {
		t.Errorf("unknown table bytes = %v", got)
	}
}

func TestLineitemDominates(t *testing.T) {
	s := Schema{ScaleFactor: 1}
	if len(tableBytes) != 8 {
		t.Fatalf("schema has %d tables, want 8", len(tableBytes))
	}
	for tb := range tableBytes {
		if tb != Lineitem && s.Bytes(tb) >= s.Bytes(Lineitem) {
			t.Errorf("%s (%v) is not smaller than lineitem (%v)", tb, s.Bytes(tb), s.Bytes(Lineitem))
		}
	}
	if float64(s.Bytes(Lineitem))/float64(s.TotalBytes()) < 0.6 {
		t.Error("lineitem should be >60% of the database")
	}
}

func TestAllQueriesCompile(t *testing.T) {
	s := PaperSchema()
	for q := 1; q <= NumQueries; q++ {
		w, err := Query(q, s)
		if err != nil {
			t.Errorf("Q%d: %v", q, err)
			continue
		}
		if err := w.Validate(); err != nil {
			t.Errorf("Q%d invalid: %v", q, err)
		}
		if w.Name != "" && !strings.HasPrefix(w.Name, "Q") {
			t.Errorf("Q%d name = %q", q, w.Name)
		}
		for _, j := range w.Jobs {
			if j.Profile.InputBytes <= 0 {
				t.Errorf("Q%d job %s has no input", q, j.ID)
			}
			if !j.Profile.Compression.Enabled {
				t.Errorf("Q%d job %s: compression off, Table I says C=Y", q, j.ID)
			}
			if j.Profile.Replicas != 3 {
				t.Errorf("Q%d job %s: replicas %d, Table I says R=3", q, j.ID, j.Profile.Replicas)
			}
		}
	}
}

func TestQueryRejectsBadNumbers(t *testing.T) {
	s := PaperSchema()
	for _, q := range []int{0, -3, 23, 100} {
		if _, err := Query(q, s); err == nil {
			t.Errorf("Q%d accepted", q)
		}
	}
	if _, err := Query(1, Schema{}); err == nil {
		t.Error("invalid schema accepted")
	}
}

func TestKnownJobCounts(t *testing.T) {
	s := PaperSchema()
	// Q21 is the paper's example: "Q21 has 9 MapReduce jobs".
	want := map[int]int{1: 2, 6: 1, 14: 2, 19: 2, 21: 9}
	for q, n := range want {
		got, err := JobCount(q, s)
		if err != nil {
			t.Fatalf("Q%d: %v", q, err)
		}
		if got != n {
			t.Errorf("Q%d compiles to %d jobs, want %d", q, got, n)
		}
	}
}

func TestJobCountsStable(t *testing.T) {
	s := PaperSchema()
	total := 0
	for q := 1; q <= NumQueries; q++ {
		n, err := JobCount(q, s)
		if err != nil {
			t.Fatal(err)
		}
		if n < 1 || n > 12 {
			t.Errorf("Q%d has %d jobs — outside a plausible Hive plan", q, n)
		}
		total += n
	}
	// The 22 plans together should be on the order of a hundred jobs.
	if total < 60 || total > 130 {
		t.Errorf("total jobs across all queries = %d", total)
	}
}

func TestDeepQueriesAreChains(t *testing.T) {
	s := PaperSchema()
	w, err := Query(21, s)
	if err != nil {
		t.Fatal(err)
	}
	order, err := w.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 9 {
		t.Fatalf("Q21 topo order has %d jobs", len(order))
	}
	// Q21's join chain makes the critical path most of the plan.
	path, hops := w.CriticalPath(func(dag.Job) float64 { return 1 })
	if hops < 6 {
		t.Errorf("Q21 critical path has %v hops (%v), want a deep chain", hops, path)
	}
}

func TestReducersForClamps(t *testing.T) {
	if got := reducersFor(0); got != 1 {
		t.Errorf("reducersFor(0) = %d, want 1", got)
	}
	if got := reducersFor(100 * units.MB); got != 1 {
		t.Errorf("reducersFor(100MB) = %d, want 1", got)
	}
	if got := reducersFor(units.GB); got != 4 {
		t.Errorf("reducersFor(1GB) = %d, want 4", got)
	}
	if got := reducersFor(units.TB); got != 99 {
		t.Errorf("reducersFor(1TB) = %d, want 99 (clamped)", got)
	}
}

func TestBuilderRelBytesPropagate(t *testing.T) {
	s := Schema{ScaleFactor: 1}
	b := newBuilder(s, "t")
	li := b.table(Lineitem)
	if li.bytes != s.Bytes(Lineitem) {
		t.Errorf("table rel bytes = %v", li.bytes)
	}
	agg := b.scanAgg(li, 0.5, 0.5, 1.0)
	if agg.id == "" {
		t.Error("job rel has no producer id")
	}
	want := li.bytes.Scale(0.5 * 0.5)
	if math.Abs(float64(agg.bytes-want))/float64(want) > 0.01 {
		t.Errorf("scanAgg output = %v, want %v", agg.bytes, want)
	}
	// join depends on both producers.
	j := b.join(agg, b.table(Orders), 1.0, 0.2)
	flow, err := b.build()
	if err != nil {
		t.Fatal(err)
	}
	last := flow.Jobs[len(flow.Jobs)-1]
	if len(last.Deps) != 1 || last.Deps[0] != agg.id {
		t.Errorf("join deps = %v, want [%s]", last.Deps, agg.id)
	}
	if j.bytes <= 0 {
		t.Error("join output empty")
	}
}

func TestMapJoinIsMapOnly(t *testing.T) {
	b := newBuilder(Schema{ScaleFactor: 1}, "t")
	out := b.mapJoin(b.table(Lineitem), b.table(Nation), 0.5)
	flow, err := b.build()
	if err != nil {
		t.Fatal(err)
	}
	if flow.Jobs[0].Profile.ReduceTasks != 0 {
		t.Error("map join has reducers")
	}
	if out.bytes <= 0 {
		t.Error("map join output empty")
	}
}

func TestSortLimitSingleReducer(t *testing.T) {
	b := newBuilder(Schema{ScaleFactor: 1}, "t")
	b.sortLimit(b.table(Customer), 0.1)
	flow, err := b.build()
	if err != nil {
		t.Fatal(err)
	}
	if flow.Jobs[0].Profile.ReduceTasks != 1 {
		t.Errorf("sort job reducers = %d, want 1", flow.Jobs[0].Profile.ReduceTasks)
	}
}

// Property: every query's total bytes processed grows monotonically with
// the scale factor.
func TestQueriesScaleMonotonically(t *testing.T) {
	f := func(q8 uint8, sf8 uint8) bool {
		q := int(q8%22) + 1
		sf := float64(sf8%40) + 1
		small, err := Query(q, Schema{ScaleFactor: sf})
		if err != nil {
			return false
		}
		big, err := Query(q, Schema{ScaleFactor: sf * 2})
		if err != nil {
			return false
		}
		return big.TotalInput() > small.TotalInput()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestPlanShapesGolden pins every query's compiled plan shape: job count,
// root count, and depth. Any planner change must update this table
// deliberately.
func TestPlanShapesGolden(t *testing.T) {
	type shape struct{ jobs, roots, depth int }
	want := map[int]shape{
		1: {2, 1, 2}, 2: {8, 2, 6}, 3: {4, 1, 4}, 4: {3, 1, 3},
		5: {7, 2, 5}, 6: {1, 1, 1}, 7: {7, 2, 6}, 8: {8, 3, 6},
		9: {7, 2, 6}, 10: {4, 1, 4}, 11: {4, 1, 4}, 12: {3, 1, 3},
		13: {3, 1, 3}, 14: {2, 1, 2}, 15: {4, 1, 4}, 16: {4, 1, 4},
		17: {4, 1, 4}, 18: {5, 1, 5}, 19: {2, 1, 2}, 20: {7, 3, 5},
		21: {9, 4, 6}, 22: {5, 1, 5},
	}
	s := PaperSchema()
	for q := 1; q <= NumQueries; q++ {
		w, err := Query(q, s)
		if err != nil {
			t.Fatalf("Q%d: %v", q, err)
		}
		_, depth := w.CriticalPath(func(dag.Job) float64 { return 1 })
		got := shape{len(w.Jobs), len(w.Roots()), int(depth)}
		if got != want[q] {
			t.Errorf("Q%d shape = %+v, want %+v", q, got, want[q])
		}
	}
}
