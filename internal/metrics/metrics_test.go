package metrics

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestAccuracy(t *testing.T) {
	cases := []struct {
		est, act time.Duration
		want     float64
	}{
		{100 * time.Second, 100 * time.Second, 1.0},
		{90 * time.Second, 100 * time.Second, 0.9},
		{110 * time.Second, 100 * time.Second, 0.9},
		{200 * time.Second, 100 * time.Second, 0.0}, // 100% off
		{300 * time.Second, 100 * time.Second, 0.0}, // clamped
		{0, 0, 1.0},           // both zero: perfect
		{time.Second, 0, 0.0}, // actual zero, est not
	}
	for _, c := range cases {
		if got := Accuracy(c.est, c.act); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Accuracy(%v, %v) = %v, want %v", c.est, c.act, got, c.want)
		}
	}
}

func TestError(t *testing.T) {
	if got := Error(90*time.Second, 100*time.Second); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("Error = %v, want 0.1", got)
	}
	if got := Error(300*time.Second, 100*time.Second); math.Abs(got-2.0) > 1e-9 {
		t.Errorf("Error unclamped = %v, want 2.0", got)
	}
	if got := Error(0, 0); got != 0 {
		t.Errorf("Error(0,0) = %v, want 0", got)
	}
	if got := Error(time.Second, 0); !math.IsInf(got, 1) {
		t.Errorf("Error(x,0) = %v, want +Inf", got)
	}
}

// TestAccuracyErrorEdgeCases pins the degenerate-input contract both
// functions document: zero and negative durations, and estimates past
// the 2×actual clamp point.
func TestAccuracyErrorEdgeCases(t *testing.T) {
	cases := []struct {
		name     string
		est, act time.Duration
		wantAcc  float64
		wantErr  float64
	}{
		{"half the truth scores one half", 50 * time.Second, 100 * time.Second, 0.5, 0.5},
		{"exactly 2x hits the clamp", 200 * time.Second, 100 * time.Second, 0, 1},
		{"past 2x stays clamped, error keeps growing", 500 * time.Second, 100 * time.Second, 0, 4},
		{"negative estimate clamps, error unbounded", -100 * time.Second, 50 * time.Second, 0, 3},
		{"zero estimate of positive actual", 0, 100 * time.Second, 0, 1},
		{"both zero is a perfect instant", 0, 0, 1, 0},
		{"both negative counts as instant", -time.Second, -2 * time.Second, 1, 0},
		{"negative actual, positive estimate", time.Second, -time.Second, 0, math.Inf(1)},
		{"zero actual, positive estimate", time.Second, 0, 0, math.Inf(1)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := Accuracy(c.est, c.act); math.Abs(got-c.wantAcc) > 1e-9 {
				t.Errorf("Accuracy(%v, %v) = %v, want %v", c.est, c.act, got, c.wantAcc)
			}
			got := Error(c.est, c.act)
			if math.IsInf(c.wantErr, 1) {
				if !math.IsInf(got, 1) {
					t.Errorf("Error(%v, %v) = %v, want +Inf", c.est, c.act, got)
				}
			} else if math.Abs(got-c.wantErr) > 1e-9 {
				t.Errorf("Error(%v, %v) = %v, want %v", c.est, c.act, got, c.wantErr)
			}
		})
	}
}

func TestImprovementFactor(t *testing.T) {
	if got := ImprovementFactor(0.5, 0.1); math.Abs(got-5) > 1e-9 {
		t.Errorf("factor = %v, want 5", got)
	}
	if got := ImprovementFactor(0.5, 0); !math.IsInf(got, 1) {
		t.Errorf("factor with zero candidate error = %v, want +Inf", got)
	}
	if got := ImprovementFactor(0, 0); got != 1 {
		t.Errorf("factor 0/0 = %v, want 1", got)
	}
}

func TestAggregates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := Mean(xs); got != 2.5 {
		t.Errorf("Mean = %v", got)
	}
	if got := Min(xs); got != 1 {
		t.Errorf("Min = %v", got)
	}
	if got := Median(xs); got != 2.5 {
		t.Errorf("Median = %v", got)
	}
	if got := Median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd Median = %v", got)
	}
}

func TestAggregatesEmpty(t *testing.T) {
	if Mean(nil) != 0 || Min(nil) != 0 || Median(nil) != 0 {
		t.Error("empty aggregates not all zero")
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Median mutated input: %v", xs)
	}
}

// Property: accuracy is in [0,1] and symmetric in over/under estimation
// of the same magnitude.
func TestAccuracyProperties(t *testing.T) {
	f := func(actSec uint16, errPct uint8) bool {
		act := time.Duration(actSec+1) * time.Second
		frac := float64(errPct%100) / 100
		over := act + time.Duration(frac*float64(act))
		under := act - time.Duration(frac*float64(act))
		a, b := Accuracy(over, act), Accuracy(under, act)
		if a < 0 || a > 1 || b < 0 || b > 1 {
			return false
		}
		return math.Abs(a-b) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Mean lies within [Min, slices.Max] for magnitudes that do not
// overflow the running sum.
func TestMeanBounded(t *testing.T) {
	f := func(raw []int32) bool {
		var xs []float64
		for _, x := range raw {
			xs = append(xs, float64(x))
		}
		if len(xs) == 0 {
			return true
		}
		m := Mean(xs)
		return m >= Min(xs)-1e-9*math.Abs(Min(xs))-1e-9 &&
			m <= slices.Max(xs)+1e-9*math.Abs(slices.Max(xs))+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
