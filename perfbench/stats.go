package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// minBeyond is the number of samples that must lie above a reported
// percentile: a p99 needs at least 1000 samples, a median at least 20.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of samples.
// It refuses, with an error, a percentile that fewer than minBeyond
// samples lie beyond, since such a tail is a handful of outliers and does
// not repeat from run to run. samples is sorted in place.
func percentile(samples []float64, q float64) (float64, error) {
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile %v outside (0,1)", q)
	}
	n := len(samples)
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if beyond := n - 1 - rank; n == 0 || beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", q*100, n, max(n-1-rank, 0), minBeyond)
	}
	slices.Sort(samples)
	return samples[rank], nil
}

// median is the midpoint of samples without the tail-sample rule: it
// summarises a handful of repeated measurements (set-up times, ladder
// batches), not a latency distribution. samples is sorted in place.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	slices.Sort(samples)
	m := len(samples) / 2
	if len(samples)%2 == 1 {
		return samples[m]
	}
	return (samples[m-1] + samples[m]) / 2
}

// midMean is the interquartile mean: the mean of the middle half of
// values once the lowest and highest quarter are dropped. Like a median it
// ignores a minority of outliers, and it varies less from run to run
// because it averages the values it keeps. values is sorted in place.
func midMean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	slices.Sort(values)
	q := len(values) / 4
	mid := values[q : len(values)-q]
	var sum float64
	for _, v := range mid {
		sum += v
	}
	return sum / float64(len(mid))
}

// durationsUs converts nanosecond latencies to microseconds.
func durationsUs(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / float64(time.Microsecond)
	}
	return out
}

// ratio divides, returning 0 for an empty denominator (a counter a
// workload never exercises).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
