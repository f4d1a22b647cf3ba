package units

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestBytesString(t *testing.T) {
	cases := []struct {
		in   Bytes
		want string
	}{
		{0, "0B"},
		{512, "512B"},
		{KB, "1.00KB"},
		{1536, "1.50KB"},
		{MB, "1.00MB"},
		{100 * MB, "100.00MB"},
		{GB, "1.00GB"},
		{2560 * MB, "2.50GB"},
		{TB, "1.00TB"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Bytes(%v).String() = %q, want %q", float64(c.in), got, c.want)
		}
	}
}

func TestRateString(t *testing.T) {
	if got := (100 * MBps).String(); got != "100.00MB/s" {
		t.Errorf("Rate.String() = %q, want 100.00MB/s", got)
	}
}

func TestDiv(t *testing.T) {
	if got := Div(100*MB, 100*MBps); got != time.Second {
		t.Errorf("Div(100MB, 100MB/s) = %v, want 1s", got)
	}
	if got := Div(0, 100*MBps); got != 0 {
		t.Errorf("Div(0, r) = %v, want 0", got)
	}
	if got := Div(-5, 100*MBps); got != 0 {
		t.Errorf("Div(negative, r) = %v, want 0", got)
	}
	if got := Div(MB, 0); got != time.Duration(1<<63-1) {
		t.Errorf("Div(b, 0) = %v, want max duration", got)
	}
}

func TestSecondsSaturates(t *testing.T) {
	if got := Seconds(math.MaxFloat64); got != time.Duration(1<<63-1) {
		t.Errorf("Seconds(huge) = %v, want max duration", got)
	}
	if got := Seconds(-1); got != 0 {
		t.Errorf("Seconds(-1) = %v, want 0", got)
	}
	if got := Seconds(1.5); got != 1500*time.Millisecond {
		t.Errorf("Seconds(1.5) = %v, want 1.5s", got)
	}
}

func TestPerTask(t *testing.T) {
	r := 100 * MBps
	if got := r.PerTask(0); got != r {
		t.Errorf("PerTask(0) = %v, want full rate", got)
	}
	if got := r.PerTask(1); got != r {
		t.Errorf("PerTask(1) = %v, want full rate", got)
	}
	if got := r.PerTask(4); got != 25*MBps {
		t.Errorf("PerTask(4) = %v, want 25MB/s", got)
	}
}

func TestRateMin(t *testing.T) {
	a, b := 10*MBps, 20*MBps
	if got := a.Min(b); got != a {
		t.Errorf("Min picked %v, want %v", got, a)
	}
	if got := b.Min(a); got != a {
		t.Errorf("Min picked %v, want %v", got, a)
	}
}

func TestScaleClampsNegative(t *testing.T) {
	if got := Bytes(100).Scale(-2); got != 0 {
		t.Errorf("Scale(-2) = %v, want 0", got)
	}
	if got := Bytes(100).Scale(0.5); got != 50 {
		t.Errorf("Scale(0.5) = %v, want 50", got)
	}
}

// Property: Div followed by multiplying back approximately recovers the
// byte count, for sane magnitudes.
func TestDivRoundTrip(t *testing.T) {
	f := func(megs uint16, rateMegs uint16) bool {
		b := Bytes(megs) * MB
		r := Rate(rateMegs+1) * MBps // avoid zero rate
		d := Div(b, r)
		back := float64(r) * d.Seconds()
		return math.Abs(back-float64(b)) <= float64(b)*1e-6+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Seconds is monotonic for non-negative inputs.
func TestSecondsMonotonic(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := float64(a), float64(b)
		if x > y {
			x, y = y, x
		}
		return Seconds(x) <= Seconds(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
