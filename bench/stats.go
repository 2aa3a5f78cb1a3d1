package main

import "sort"

// median returns the middle value of xs (mean of the middle two for an even
// count), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// best returns the median of the three best samples of a timed metric: the
// three largest when higher is better, the three smallest otherwise. The
// noise of a shared machine is one-sided: a neighbour can slow a repetition
// down, nothing speeds one up. The best repetitions are the ones that ran
// undisturbed, they repeat from run to run where the median of all of them
// does not, and taking the middle one of three keeps a single freak sample
// out. With fewer than three samples it is the median of what there is.
func best(xs []float64, higherIsBetter bool) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if higherIsBetter {
		return median(s[max(0, len(s)-3):])
	}
	return median(s[:min(3, len(s))])
}

// spread returns the distance between the first and the third quartile of xs
// as a share of their median: the run-to-run dispersion that -compare sets
// against a metric's bound. The quartiles are those of Python's
// statistics.quantiles(xs, n=4). It is 0 for fewer than two samples or a zero
// median.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		pos := i * (len(s) + 1)
		j := min(max(pos/4, 1), len(s)-1)
		delta := float64(pos - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (quartile(3) - quartile(1)) / m
}
