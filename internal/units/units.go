// Package units defines the scalar quantities shared by every model in
// this repository: data sizes, throughput rates, and the conversions
// between them. Keeping them as named float64 types (rather than raw
// float64) makes model formulas such as t = D/θ read like the paper and
// lets the compiler catch unit mix-ups at API boundaries.
package units

import (
	"fmt"
	"time"
)

// Bytes is a data size. Negative values are invalid everywhere in this
// repository; constructors and setters must reject them.
type Bytes float64

// Common data sizes.
const (
	KB Bytes = 1 << 10
	MB Bytes = 1 << 20
	GB Bytes = 1 << 30
	TB Bytes = 1 << 40
)

// Rate is a throughput in bytes per second.
type Rate float64

// MBps is one megabyte per second. The paper quotes device speeds in
// decimal-ish megabytes; we keep binary MB for internal consistency — the
// models only ever use ratios of rates, so the convention cancels out.
const MBps Rate = Rate(MB)

// String renders a size using the largest unit that keeps the mantissa
// readable, e.g. "1.50GB".
func (b Bytes) String() string {
	switch {
	case b >= TB:
		return fmt.Sprintf("%.2fTB", float64(b/TB))
	case b >= GB:
		return fmt.Sprintf("%.2fGB", float64(b/GB))
	case b >= MB:
		return fmt.Sprintf("%.2fMB", float64(b/MB))
	case b >= KB:
		return fmt.Sprintf("%.2fKB", float64(b/KB))
	}
	return fmt.Sprintf("%.0fB", float64(b))
}

// String renders a rate, e.g. "100.00MB/s".
func (r Rate) String() string {
	return Bytes(r).String() + "/s"
}

// Div returns the time needed to move b bytes at rate r.
// It returns +Inf-like maximal duration when r is zero so callers can use
// the result directly in max() bottleneck comparisons without a branch.
func Div(b Bytes, r Rate) time.Duration {
	if b <= 0 {
		return 0
	}
	if r <= 0 {
		return time.Duration(1<<63 - 1)
	}
	return Seconds(float64(b) / float64(r))
}

// Seconds converts a float number of seconds to a time.Duration, saturating
// instead of overflowing for absurdly large inputs.
func Seconds(s float64) time.Duration {
	const maxSec = float64(1<<63-1) / float64(time.Second)
	if s >= maxSec {
		return time.Duration(1<<63 - 1)
	}
	if s <= 0 {
		return 0
	}
	return time.Duration(s * float64(time.Second))
}

// PerTask divides an aggregate rate evenly among n tasks, the μ(Δ)=1/Δ
// sharing rule from the paper's resource usage model. n <= 1 returns the
// full rate.
func (r Rate) PerTask(n int) Rate {
	if n <= 1 {
		return r
	}
	return r / Rate(n)
}

// Min returns the smaller of two rates.
func (r Rate) Min(o Rate) Rate {
	if o < r {
		return o
	}
	return r
}

// Scale multiplies a size by a dimensionless factor (e.g. a selectivity),
// clamping negative results to zero.
func (b Bytes) Scale(f float64) Bytes {
	v := Bytes(float64(b) * f)
	if v < 0 {
		return 0
	}
	return v
}
