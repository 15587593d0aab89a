package main

import (
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestTailPercentileRule(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 50}, {39, 50}, // fewer than forty samples: median alone
		{40, 75}, {99, 75}, {100, 90}, {999, 90}, {1000, 99},
		{9999, 99}, {10000, 99.9}, {100000, 99.99}, {10000000, 99.99},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	// The chosen percentile always leaves at least ten samples beyond it.
	for n := 40; n < 5000; n += 7 {
		if p := tailPercentile(n); float64(n)*(100-p)/100 < 10-1e-6 {
			t.Fatalf("n=%d: percentile %g leaves %.2f samples beyond it", n, p, float64(n)*(1-p/100))
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g, %g; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles(1..3) = %g, %g; want 1, 3", q1, q3)
	}
	// statistics.quantiles([1, 5], n=4) == [0.0, 3.0, 6.0] (extrapolates)
	if q1, q3 := quartiles([]float64{5, 1}); q1 != 0 || q3 != 6 {
		t.Errorf("quartiles(1,5) = %g, %g; want 0, 6", q1, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

func TestJudgePairedRule(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	better := []float64{110, 111, 109, 110, 112, 108, 110, 111, 109, 99}
	v := judge(base, better, true)
	if v.wins != 9 || v.losses != 1 || !v.gain {
		t.Errorf("9/10 wins with a wide gap: %+v, want a gain", v)
	}
	// Same data with lower-is-better: the change loses every pair.
	if v := judge(base, better, false); v.gain || v.wins != 1 {
		t.Errorf("lower-is-better: %+v, want no gain", v)
	}
	// Winning every pair by less than the base's spread is not a gain.
	tiny := make([]float64, len(base))
	for i, b := range base {
		tiny[i] = b + 0.5
	}
	if v := judge(base, tiny, true); v.gain || v.wins != 10 {
		t.Errorf("gap below the base IQR: %+v, want no gain", v)
	}
	// Ties count for neither side.
	if v := judge(base, base, true); v.wins != 0 || v.losses != 0 || v.gain {
		t.Errorf("identical runs: %+v", v)
	}
	// Fewer than ten pairs show no gain, however clear.
	if v := judge(base[:9], better[:9], true); v.gain || v.wins != 9 {
		t.Errorf("nine pairs: %+v, want no gain", v)
	}
	if v := judge(base[:1], better[:1], true); v.gain {
		t.Errorf("one pair: %+v, want no gain", v)
	}
}

func TestGainRefusal(t *testing.T) {
	ok := func(failed, attempted int64) result {
		return result{Correct: true, Failed: failed, Attempted: attempted}
	}
	cases := []struct {
		base, change []result
		refused      bool
	}{
		{[]result{ok(0, 100)}, []result{ok(0, 120)}, false},
		// The same share of known failures on both sides.
		{[]result{ok(10, 100)}, []result{ok(12, 120)}, false},
		// Fewer failures on the change.
		{[]result{ok(10, 100)}, []result{ok(0, 100)}, false},
		// A larger share failed on the change.
		{[]result{ok(10, 100)}, []result{ok(13, 120)}, true},
		{[]result{ok(0, 100)}, []result{ok(1, 100)}, true},
		// Any run not correct.
		{[]result{ok(0, 100)}, []result{ok(0, 100), {Correct: false, Attempted: 100}}, true},
		{[]result{{Correct: false, Attempted: 100}}, []result{ok(0, 100)}, true},
	}
	for i, c := range cases {
		if got := gainRefusal(c.base, c.change) != ""; got != c.refused {
			t.Errorf("case %d: refused %v, want %v (%q)", i, got, c.refused, gainRefusal(c.base, c.change))
		}
	}
}

func TestEndToEndFromBenchmarkFile(t *testing.T) {
	dirs, err := endToEnd(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"setup_s": false, "items_per_s": true, "mem_live_mb": false,
		"allocs_per_item": false, "alloc_kb_per_item": false}
	for name, higher := range want {
		if got, ok := dirs[name]; !ok || got != higher {
			t.Errorf("%s: declared %v (present %v), want higher-is-better %v", name, got, ok, higher)
		}
	}
	bad := filepath.Join(t.TempDir(), "b.json")
	os.WriteFile(bad, []byte(`{"end_to_end": [{"name": "x", "better": "up"}]}`), 0o644)
	if _, err := endToEnd(bad); err == nil {
		t.Error("a direction other than higher or lower must be refused")
	}
}
