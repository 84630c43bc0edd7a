package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the tail rule: a tail percentile is reported only when at
// least this many samples lie beyond it.
const minBeyond = 10

// tailLadder is the set of percentiles a tail may be reported at, lowest
// first. A fixed ladder keeps a metric's meaning stable from run to run:
// the reported percentile moves only when the sample count crosses a band.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

// dist is a sample of one timing, in milliseconds or seconds.
type dist []float64

// sorted returns a sorted copy.
func (d dist) sorted() []float64 {
	s := append([]float64(nil), d...)
	sort.Float64s(s)
	return s
}

// rankOf returns the nearest-rank index of percentile p in n samples.
func rankOf(p float64, n int) int {
	// The epsilon keeps binary rounding of p (99.9) from moving the rank.
	k := int(math.Ceil(p/100*float64(n)-1e-9)) - 1
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return k
}

// percentile returns the nearest-rank p-th percentile (0 for no samples).
func (d dist) percentile(p float64) float64 {
	if len(d) == 0 {
		return 0
	}
	s := d.sorted()
	return s[rankOf(p, len(s))]
}

// median is percentile(50).
func (d dist) median() float64 { return d.percentile(50) }

// tail returns the highest ladder percentile with at least minBeyond
// samples beyond it, and its value. ok is false when the sample is too
// small for even the median to qualify.
func (d dist) tail() (p, v float64, ok bool) {
	s := d.sorted()
	for _, q := range tailLadder {
		k := rankOf(q, len(s))
		if len(s) == 0 || len(s)-1-k < minBeyond {
			break
		}
		p, v, ok = q, s[k], true
	}
	return p, v, ok
}

// tailNote describes a tail for the human-readable summary.
func (d dist) tailNote(name string) string {
	p, v, ok := d.tail()
	if !ok {
		return fmt.Sprintf("%s: only %d samples, no percentile has %d beyond it", name, len(d), minBeyond)
	}
	return fmt.Sprintf("%s = p%g of %d samples = %.4g", name, p, len(d), v)
}

// tailValue is the tail's value, or the maximum when the sample is too
// small for the rule (tailNote says so).
func (d dist) tailValue() float64 {
	if _, v, ok := d.tail(); ok {
		return v
	}
	return d.percentile(100)
}
