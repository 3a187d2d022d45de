package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// samples is a set of latencies in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d)/float64(time.Millisecond)) }

// quantile is the nearest-rank q-quantile: the smallest sample with at
// least a q share of the samples at or below it.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// beyond is how many of n samples lie strictly beyond the nearest-rank
// q-quantile.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// stat is one reported timing: its value, the percentile it is, and the
// sample count it comes from.
type stat struct {
	value float64
	q     float64
	n     int
}

// pct reports the nearest-rank q-quantile of xs.
func pct(xs []float64, q float64) stat { return stat{quantile(xs, q), q, len(xs)} }

// median is pct(xs, 0.5).
func median(xs []float64) stat { return pct(xs, 0.5) }

// supported reports whether at least ten samples lie beyond the
// percentile.
func (s stat) supported() bool { return beyond(s.n, s.q) >= 10 }

func (s stat) String() string {
	return fmt.Sprintf("p%g of n=%d", math.Round(s.q*100), s.n)
}
