package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// percentile is the p-th percentile (0..100) of v by linear interpolation
// between closest ranks; NaN for an empty series.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sorted(v)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return percentile(v, 50) }

func mean(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// quartiles matches Python's statistics.quantiles(v, n=4) (the exclusive
// method), which is what the acceptance rule for run-to-run spread uses. It
// needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sorted(v)
	n := len(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median — the
// run-to-run noise figure every bound is compared against.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}

// tailPercentile is the highest whole percentile of an n-sample series that
// still has ten samples beyond it; ok is false when even the median has not.
func tailPercentile(n int) (p int, ok bool) {
	if n < 20 {
		return 0, false
	}
	p = int(math.Floor(100 * (1 - 10/float64(n))))
	if p > 99 {
		p = 99
	}
	return p, true
}
