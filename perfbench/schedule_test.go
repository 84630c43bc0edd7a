package main

import (
	"reflect"
	"testing"
	"time"

	"sgxbounds/internal/bench"
)

func TestScheduleSeedDeterminism(t *testing.T) {
	a := newSchedule(7, 16)
	b := newSchedule(7, 16)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different schedules")
	}
	c := newSchedule(8, 16)
	if reflect.DeepEqual(a.Nominal, c.Nominal) || reflect.DeepEqual(a.Warm, c.Warm) {
		t.Fatal("seeds 7 and 8 gave the same arrivals or warm keys")
	}
}

func TestScheduleShape(t *testing.T) {
	s := newSchedule(1, 16)
	if st := s.Nominal; st.RPS != nominalRPS || st.Dur != 8*time.Second || len(st.Arrivals) != 160 {
		t.Fatalf("want an 8 s nominal step of 160 arrivals at %v req/s, got %v for %v, %d arrivals", nominalRPS, st.RPS, st.Dur, len(st.Arrivals))
	}
	warmSet := map[string]bool{}
	for _, j := range s.Warm {
		warmSet[j.Digest()] = true
	}
	if len(warmSet) != warmKeys {
		t.Fatalf("%d distinct warm keys, want %d", len(warmSet), warmKeys)
	}
	seen := map[string]bool{}
	counts := map[kind]int{}
	total := 0
	for _, st := range []step{s.Nominal} {
		for i, a := range st.Arrivals {
			if a.At < 0 || a.At >= st.Dur || (i > 0 && a.At < st.Arrivals[i-1].At) {
				t.Fatalf("arrival at %v outside or out of order in a %v step", a.At, st.Dur)
			}
			counts[a.Kind]++
			total++
			key := a.Job.Digest()
			if a.Kind == warm {
				if !warmSet[key] {
					t.Fatalf("warm arrival %v is not a prewarmed key", a.Job)
				}
				continue
			}
			if warmSet[key] || seen[key] {
				t.Fatalf("%s arrival %v reuses a key; cold keys must be never seen", a.Kind, a.Job)
			}
			seen[key] = true
			if err := a.Job.Validate(); err != nil {
				t.Fatal(err)
			}
			if (a.Kind == dup) != (a.Copies == dupCopies) {
				t.Fatalf("%s arrival with %d copies", a.Kind, a.Copies)
			}
		}
	}
	for k, want := range map[kind]float64{warm: 0.6, cold: 0.3, dup: 0.1} {
		if got := float64(counts[k]) / float64(total); got < want-0.02 || got > want+0.02 {
			t.Errorf("%s share %.2f, want about %.2f", k, got, want)
		}
	}
}

func TestColdCycleCoversEveryCombinationInStrata(t *testing.T) {
	cycle := coldCycle(3)
	if want := len(coldWorkloads) * len(bench.KnownPolicies) * len(coldSizes); len(cycle) != want {
		t.Fatalf("cold cycle has %d keys, want %d", len(cycle), want)
	}
	seen := map[string]bool{}
	for _, j := range cycle {
		if seen[j.Digest()] || j.Threads != 3 {
			t.Fatalf("the cold cycle holds %v twice or at another thread count", j)
		}
		seen[j.Digest()] = true
	}
	n := len(coldWorkloads) * len(coldSizes)
	for start := 0; start+n <= len(cycle); start += n {
		strata := map[string]bool{}
		for _, j := range cycle[start : start+n] {
			strata[j.Workloads[0]+"/"+j.Size] = true
		}
		if len(strata) != n {
			t.Fatalf("keys %d..%d cover %d workload x size strata, want all %d", start, start+n, len(strata), n)
		}
	}
}

func TestSeedsDrawTheSameColdCells(t *testing.T) {
	cells := func(seed int64) []string {
		var keys []string
		for _, a := range newSchedule(seed, 16).Nominal.Arrivals {
			if a.Kind != warm {
				keys = append(keys, a.Job.Digest())
			}
		}
		return keys
	}
	a, b := cells(3), cells(4)
	n := min(len(a), len(b)) // the arrival count varies with the seeded phase
	if n == 0 || !reflect.DeepEqual(a[:n], b[:n]) {
		t.Errorf("seeds 3 and 4 drew different cells (%d and %d)", len(a), len(b))
	}
}

func TestBurstKeys(t *testing.T) {
	a, b := newSchedule(3, 16).Burst, newSchedule(4, 16).Burst
	if len(a) != len(coldWorkloads)*len(coldSizes) || !reflect.DeepEqual(a, b) {
		t.Fatalf("bursts of %d and %d keys, want the same %d for every seed", len(a), len(b), len(coldWorkloads)*len(coldSizes))
	}
	strata := map[string]bool{}
	for _, j := range a {
		strata[j.Workloads[0]+"/"+j.Size] = true
	}
	if len(strata) != len(a) {
		t.Fatalf("the burst's %d keys cover %d workload x size strata, want one each", len(a), len(strata))
	}
}
