package main

import "testing"

func seq(n int) dist {
	d := make(dist, n)
	for i := range d {
		d[n-1-i] = float64(i + 1) // descending, so sorting matters
	}
	return d
}

func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n      int
		p, v   float64
		tailOK bool
	}{
		{n: 10, tailOK: false}, // the median has only 5 beyond it
		{n: 20, p: 50, v: 10, tailOK: true},
		{n: 39, p: 50, v: 20, tailOK: true},  // p75 = rank 30, 9 beyond
		{n: 40, p: 75, v: 30, tailOK: true},  // p75 = rank 30, 10 beyond
		{n: 99, p: 75, v: 75, tailOK: true},  // p90 = rank 90, 9 beyond
		{n: 100, p: 90, v: 90, tailOK: true}, // p90 = rank 90, 10 beyond
		{n: 200, p: 95, v: 190, tailOK: true},
		{n: 1000, p: 99, v: 990, tailOK: true},
		{n: 10000, p: 99.9, v: 9990, tailOK: true},
	} {
		d := seq(tc.n)
		p, v, ok := d.tail()
		if ok != tc.tailOK || p != tc.p || v != tc.v {
			t.Errorf("n=%d: tail = p%g %g %v, want p%g %g %v", tc.n, p, v, ok, tc.p, tc.v, tc.tailOK)
		}
		if ok {
			beyond := 0
			for _, x := range d {
				if x > v {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Errorf("n=%d: only %d samples beyond the tail", tc.n, beyond)
			}
		}
	}
}

func TestTailValueFallsBackToMax(t *testing.T) {
	if got := seq(7).tailValue(); got != 7 {
		t.Errorf("tailValue of 7 samples = %g, want the maximum 7", got)
	}
}

func TestMedian(t *testing.T) {
	if got := seq(5).median(); got != 3 {
		t.Errorf("median = %g, want 3", got)
	}
	if got := (dist{}).median(); got != 0 {
		t.Errorf("median of nothing = %g, want 0", got)
	}
}
