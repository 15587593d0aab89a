package main

import (
	"testing"
	"time"
)

func TestCalibrateArithmetic(t *testing.T) {
	cases := []struct {
		raw, before, after, nominal, want time.Duration
	}{
		// Probe at nominal: raw time unchanged.
		{10 * time.Millisecond, 500 * time.Microsecond, 500 * time.Microsecond, 500 * time.Microsecond, 10 * time.Millisecond},
		// Host twice as slow as nominal: calibrated time halves.
		{10 * time.Millisecond, time.Millisecond, time.Millisecond, 500 * time.Microsecond, 5 * time.Millisecond},
		// The factor uses the mean of the bracketing probes.
		{10 * time.Millisecond, 400 * time.Microsecond, 600 * time.Microsecond, 500 * time.Microsecond, 10 * time.Millisecond},
		{9 * time.Millisecond, 250 * time.Microsecond, 350 * time.Microsecond, 900 * time.Microsecond, 27 * time.Millisecond},
	}
	for _, c := range cases {
		if got := calibrate(c.raw, c.before, c.after, c.nominal); got != c.want {
			t.Errorf("calibrate(%v, %v, %v, %v) = %v, want %v", c.raw, c.before, c.after, c.nominal, got, c.want)
		}
	}
}

// TestInterpreterComputes pins the reference interpreter against the same
// loop written directly in Go, so a broken dispatch cannot pass for a
// fast host.
func TestInterpreterComputes(t *testing.T) {
	var a, b [refMemWords]uint32
	for i := range a {
		a[i] = uint32(i) * 2654435761
		b[i] = a[i]
	}
	got := interpret(&a, 1000)
	h := uint32(2166136261)
	for i := uint32(0); i < 1000; i++ {
		x := b[i&memMask]
		h = (h ^ x) * 16777619
		b[i&memMask] = x + h>>7
	}
	if got != h || a != b {
		t.Fatalf("interpreter hash %#x, Go loop %#x (memory equal: %v)", got, h, a == b)
	}
}

func TestCalibratorMeasures(t *testing.T) {
	c := newCalibrator()
	// Two milliseconds of sleep, then two of work: the sleep counts on the
	// wall clock only.
	var mem [refMemWords]uint32
	wall, cpu, cal := c.measure(func() {
		time.Sleep(2 * time.Millisecond)
		for t0 := time.Now(); time.Since(t0) < 2*time.Millisecond; {
			interpret(&mem, 100)
		}
	})
	if wall < 4*time.Millisecond || cpu <= 0 || cpu >= wall || cal <= 0 {
		t.Fatalf("measure: wall %v, CPU %v, calibrated %v", wall, cpu, cal)
	}
	if f := c.factor(); !(f > 0) {
		t.Fatalf("factor %g", f)
	}
}
