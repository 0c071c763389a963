package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile estimates the p-th quantile (0 < p <= 1) of xs with the
// Harrell–Davis estimator: a weighted mean of every order statistic, the
// weights being the Beta(p(n+1), (1-p)(n+1)) mass over each rank's
// interval. Unlike a single order statistic it stays steady when the
// quantile falls in a gap between clusters of cells (crash-grid's
// forkbench and shell halves). p = 1 is the maximum.
func quantile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n == 1 || p >= 1 {
		return s[n-1]
	}
	a, b := p*float64(n+1), (1-p)*float64(n+1)
	var q, prev float64
	for i := 1; i <= n; i++ {
		cur := regIncBeta(float64(i)/float64(n), a, b)
		q += (cur - prev) * s[i-1]
		prev = cur
	}
	return q
}

// regIncBeta is the regularized incomplete beta function I_x(a, b),
// evaluated by its continued fraction (modified Lentz method).
func regIncBeta(x, a, b float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(a*math.Log(x) + b*math.Log1p(-x) + lab - la - lb)
	if x < (a+1)/(a+b+2) {
		return front * betaCF(x, a, b) / a
	}
	return 1 - front*betaCF(1-x, b, a)/b
}

func betaCF(x, a, b float64) float64 {
	const tiny, eps = 1e-300, 1e-15
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1; m <= 500; m++ {
		fm, m2 := float64(m), float64(2*m)
		num := fm * (b - fm) * x / ((a + m2 - 1) * (a + m2))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		h *= d * c
		num = -(a + fm) * (a + b + fm) * x / ((a + m2) * (a + m2 + 1))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		step := d * c
		h *= step
		if math.Abs(step-1) < eps {
			break
		}
	}
	return h
}

// tailPercentile picks the highest whole percentile above the median that
// leaves at least ten samples above it, so a tail figure always rests on
// ten or more observations. When no such percentile exists (fewer than
// about twenty samples) the maximum, p100, is reported instead.
func tailPercentile(n int) int {
	for p := 99; p > 50; p-- {
		if n-int(math.Ceil(float64(p)/100*float64(n))) >= 10 {
			return p
		}
	}
	return 100
}

// geomean returns the geometric mean of xs; 0 when xs is empty or holds a
// non-positive value (a geometric mean is undefined there).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
