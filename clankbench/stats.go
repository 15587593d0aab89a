package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs (0 <= q <= 1) with linear
// interpolation between order statistics; xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

func quantileSorted(s []float64, q float64) float64 {
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// so spreads printed here match the same arithmetic done in Python.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		return xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.99, 99.9, 99, 90, 75}

// tailPercentile picks the highest percentile with at least ten samples
// beyond it. With fewer than forty samples no percentile qualifies as a
// tail, and the median is reported alone (percentile 50).
func tailPercentile(n int) float64 {
	if n < 40 {
		return 50
	}
	for _, p := range tailPercentiles {
		// The tolerance absorbs 100-p not being exact in binary.
		if float64(n)*(100-p)/100 >= 10-1e-6 {
			return p
		}
	}
	return 50
}

// latencyTail returns the tail percentile for xs and its value.
func latencyTail(xs []float64) (pct, value float64) {
	pct = tailPercentile(len(xs))
	return pct, quantile(xs, pct/100)
}
