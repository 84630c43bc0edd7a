package main

import (
	"math/rand"
	"time"

	"sgxbounds/internal/bench"
)

// kind is an arrival's class.
type kind uint8

const (
	warm kind = iota // a Zipf pick from the prewarmed key set
	cold             // a key never submitted before in this run
	dup              // a cold key followed at once by identical copies
)

func (k kind) String() string { return [...]string{"warm", "cold", "dup"}[k] }

// Schedule parameters. A cold key is a single-cell grid job: one of the
// coldWorkloads x coldSizes x KnownPolicies combinations (156, with cell
// costs of about 1-125 ms on a 2-core host, 20 ms on average) at a thread
// count no earlier key of the run used. The thread count hardly changes a
// cell's cost, so it only makes keys new: the key space has no end and the
// cold share stays stationary however long the run.
var (
	coldWorkloads = []string{
		"histogram", "linear_regression", "matrixmul", "string_match", "wordcount",
		"blackscholes", "bodytrack", "dedup", "fluidanimate", "streamcluster", "swaptions", "vips", "x264",
	}
	coldSizes = []string{"XS", "S"}
)

const (
	warmKeys     = 16   // prewarmed before timing
	warmThreads  = 1    // thread count of the warm keys; cold keys use higher ones
	dupCopies    = 2    // identical submits following a dup burst's first
	zipfS        = 1.2  // skew of warm picks
	nominalRPS   = 20.0 // offered rate of the nominal step
	nominalPart  = 0.5  // share of the run the nominal step takes (traced runs)
	burstThreads = 2    // thread count of the burst keys
)

// arrival is one scheduled request: Copies+1 identical submits at At.
type arrival struct {
	At     time.Duration // offset from the step's start
	Kind   kind
	Job    bench.Job
	Copies int
}

// step is one fixed offered rate held for Dur.
type step struct {
	RPS      float64
	Dur      time.Duration
	Arrivals []arrival
}

// schedule is everything one serve run sends: the keys of each burst, and
// (traced) the prewarm set and the nominal step.
type schedule struct {
	Burst   []bench.Job
	Warm    []bench.Job
	Nominal step
}

// gridJob is a single-cell grid job.
func gridJob(workload, policy, size string, threads int) bench.Job {
	return bench.Job{Experiment: "grid", Workloads: []string{workload}, Policies: []string{policy},
		Size: size, Threads: threads}
}

// coldCycle returns every combination at one thread count, in an order
// whose every prefix holds about the same mix of cell costs: round r
// visits every (workload, size) stratum in turn, stratum i with policy
// (r+i) mod len(KnownPolicies).
func coldCycle(threads int) []bench.Job {
	pols := len(bench.KnownPolicies)
	var cycle []bench.Job
	for round := 0; round < pols; round++ {
		i := 0
		for _, w := range coldWorkloads {
			for _, s := range coldSizes {
				cycle = append(cycle, gridJob(w, bench.KnownPolicies[(round+i)%pols], s, threads))
				i++
			}
		}
	}
	return cycle
}

// classCycle is the repeating order of arrival classes: 60% warm, 30%
// cold, 10% dup, with the compute-bound classes spread evenly so that the
// queue the cold cells build does not depend on where a seed happens to
// cluster them.
var classCycle = [...]kind{warm, cold, warm, warm, dup, warm, cold, warm, cold, warm}

// classes returns the classes of n arrivals: classCycle from a seeded
// starting point.
func classes(r *rand.Rand, n int) []kind {
	out := make([]kind, n)
	start := r.Intn(len(classCycle))
	for i := range out {
		out[i] = classCycle[(start+i)%len(classCycle)]
	}
	return out
}

// newSchedule generates a run's requests from seed. The nominal step takes
// nominalPart of seconds. A burst holds one round of the cold cycle's
// strata, every workload x size once, the same whatever the seed and the
// fleet's size: every burst computes the same cells, on a fresh fleet, so
// that bursts compare, and a 3-node run makes as many as a 1-node one.
func newSchedule(seed int64, seconds float64) schedule {
	r := rand.New(rand.NewSource(seed))
	var s schedule
	warmCycle := coldCycle(warmThreads)
	for _, k := range r.Perm(len(warmCycle))[:warmKeys] {
		s.Warm = append(s.Warm, warmCycle[k])
	}
	zipf := rand.NewZipf(r, zipfS, 1, warmKeys-1)
	s.Burst = coldCycle(burstThreads)[:len(coldWorkloads)*len(coldSizes)]

	st := step{RPS: nominalRPS, Dur: time.Duration(seconds * nominalPart * float64(time.Second))}
	// Arrivals are paced evenly at the step's rate from a seeded phase:
	// queueing then comes from the jobs' costs, not from the bursts of a
	// Poisson process, which would swamp a short run's percentiles.
	gap := time.Duration(float64(time.Second) / st.RPS)
	var at []time.Duration
	for t := time.Duration(r.Int63n(int64(gap))); t < st.Dur; t += gap {
		at = append(at, t)
	}
	// Cold and dup arrivals draw, in order, from cycles at rising thread
	// counts, so a run computes the same cells in the same order whatever
	// the seed.
	cls := classes(r, len(at))
	var keys []bench.Job
	threads := warmThreads + 1
	for k, class := range cls {
		a := arrival{At: at[k], Kind: class}
		if class != warm && len(keys) == 0 {
			keys = coldCycle(threads)
			threads++
		}
		switch class {
		case warm:
			a.Job = s.Warm[zipf.Uint64()]
		case cold:
			a.Job, keys = keys[0], keys[1:]
		case dup:
			a.Job, a.Copies, keys = keys[0], dupCopies, keys[1:]
		}
		st.Arrivals = append(st.Arrivals, a)
	}
	s.Nominal = st
	return s
}
