// Package metrics provides the evaluation arithmetic used throughout the
// paper's §V: estimation accuracy, error factors between models, and
// simple aggregations over experiment rows.
package metrics

import (
	"math"
	"sort"
	"time"
)

// Accuracy is the paper's metric: 1 − |estimated − actual| / actual,
// clamped to [0, 1]. The clamp engages once the estimate reaches twice
// the truth (or overshoots by more in either direction past 2×actual);
// an estimate of half the truth scores 0.5, not 0, because relative
// error is measured against the actual value. Degenerate inputs are
// defined explicitly: a non-positive actual scores 1 when the estimate
// is also non-positive (both "instant") and 0 otherwise, so negative
// durations never produce accuracies outside [0, 1].
func Accuracy(estimated, actual time.Duration) float64 {
	a := actual.Seconds()
	if a <= 0 {
		if estimated <= 0 {
			return 1
		}
		return 0
	}
	acc := 1 - math.Abs(estimated.Seconds()-a)/a
	if acc < 0 {
		return 0
	}
	return acc
}

// Error is the complementary relative error |est − actual| / actual.
// Unlike Accuracy it is unclamped, so gross mispredictions (estimate
// beyond 2× actual) remain comparable between models instead of all
// collapsing to the same score. For a non-positive actual it returns 0
// when the estimate is also non-positive and +Inf otherwise.
func Error(estimated, actual time.Duration) float64 {
	a := actual.Seconds()
	if a <= 0 {
		if estimated <= 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(estimated.Seconds()-a) / a
}

// ImprovementFactor reports how many times smaller the candidate's error
// is than the baseline's — the paper's "outperforms by a factor of N".
// A zero candidate error with a non-zero baseline error returns +Inf.
func ImprovementFactor(baselineErr, candidateErr float64) float64 {
	if candidateErr == 0 {
		if baselineErr == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return baselineErr / candidateErr
}

// Mean returns the arithmetic mean of xs (zero for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Min returns the smallest value (zero for empty input).
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Median returns the median of xs (zero for empty input).
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
