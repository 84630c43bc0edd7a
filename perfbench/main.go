// Command perfbench is the repository's benchmark: one command that runs a
// named workload, checks that the program's outputs are correct, and prints
// every metric by name and unit. Its last line of standard output is one
// JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"result_cpu_ms": {"value": 2224.2, "unit": "ms"}, ...}}
//
// Workloads (BENCHMARK.json records why each exists):
//
//	sim-phoenix  rows of sgxbench's fig7 (Phoenix+PARSEC x 4 policies), one engine worker
//	sim-sqlite   a row of sgxbench's fig1 (minidb speedtest x 4 policies), one engine worker
//	serve-1node  bursts of distinct cold jobs, each offered at once to a fresh sgxd
//	serve-3node  the same against fresh static 3-node fleets
//
// A run repeats identical work for -seconds: passes over fixed rows of a
// paper figure (sim), or bursts of the same jobs on fresh fleets (serve).
// Neither depends on -seed. The traced serve run adds an open-loop step
// whose requests are generated from -seed (schedule.go).
//
// The benchmark runs on shared 2-vCPU hosts whose CPU speed swings by a
// quarter within seconds and by half or more within an hour, and whose
// processes take turns on the same cores. So the time it reports is CPU
// time, which leaves out the time a process waits, over many repetitions
// of the same work: each cell at its best pass (sim), which leaves out
// most of the time its CPU ran slowed by its neighbours, or the median of
// a run's bursts (serve), each of which already sums 26 jobs.
// Wall times are reported per layer.
//
// With -trace 0 the run reports the end-to-end metrics, the same three on
// every workload:
//
//	setup_s        CPU time from exec to the first cell (sim), or of the
//	               nodes until every node is ready (serve); the median of
//	               several starts, each a few milliseconds, where wall time
//	               would be mostly the host's scheduling
//	result_cpu_ms  CPU time of one result: a pass over the rows, each cell
//	               at its best of the passes (sim); a job of a burst, the
//	               fleet's CPU time over the burst's jobs, median of the
//	               bursts (serve)
//	peak_rss_mb    peak resident memory of the simulating process, or of a
//	               burst's fleet summed over its nodes (median of the bursts)
//
// Failed operations and wrong bytes count in "failed". With -trace 1 it
// runs the workload untraced (sim: the passes; serve: the open-loop step)
// and again with tracing on, and reports the per-layer metrics plus the
// tracing overhead between the two; a workload reports 0 for a layer it
// does not run. The run checks its metrics against BENCHMARK.json before
// it prints them. Run it through run.sh, which builds it and sgxd from
// source:
//
//	bash perfbench/run.sh --workload sim-phoenix --seed 1 --seconds 25 --trace 0
//
// The benchmark measures the program from outside: it calls the public
// entry points of internal/bench (Engine.SuiteComparison, Fig1Sweep and
// RunGrid with Engine.CellHook; RunJob for reference bytes), folds a CPU
// profile by package, and drives sgxd over its HTTP API and /metrics. sgxd
// has no profiler, so a serve workload's simulator layers come from
// running the cells it served again in a process of the benchmark's own.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// config is one invocation's settings.
type config struct {
	root, build string // checkout root and build/scratch directory
	workload    string
	seed        int64
	seconds     float64
	trace       bool
}

// path returns a path under the build directory, creating its parent.
func (c config) path(elem ...string) string {
	p := filepath.Join(append([]string{c.build}, elem...)...)
	os.MkdirAll(filepath.Dir(p), 0o755)
	return p
}

var workloadRunners = map[string]func(config) (result, error){
	"sim-phoenix": func(c config) (result, error) { return runSim(c, "fig7") },
	"sim-sqlite":  func(c config) (result, error) { return runSim(c, "fig1") },
	"serve-1node": func(c config) (result, error) { return runServe(c, 1) },
	"serve-3node": func(c config) (result, error) { return runServe(c, 3) },
}

// checkMetrics reports an error unless res holds exactly the metrics that
// BENCHMARK.json lists for the run's mode, each in its unit.
func checkMetrics(root string, trace bool, res result) error {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	type spec struct{ Name, Unit string }
	var bm struct {
		EndToEnd []spec `json:"end_to_end"`
		PerLayer []spec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bm); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	want := bm.EndToEnd
	if trace {
		want = bm.PerLayer
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			return fmt.Errorf("metric %s (%s) missing or in another unit (%+v)", m.Name, m.Unit, got)
		}
	}
	if len(res.Metrics) != len(want) {
		return fmt.Errorf("%d metrics reported, BENCHMARK.json lists %d", len(res.Metrics), len(want))
	}
	return nil
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == simChildArg {
		os.Exit(simChild(os.Args[2:]))
	}
	var c config
	var trace int
	flag.StringVar(&c.root, "root", ".", "root of the sgxbounds checkout")
	flag.StringVar(&c.build, "build", ".bench_build", "directory for binaries, state and scratch files")
	flag.StringVar(&c.workload, "workload", "", "workload to run (sim-phoenix|sim-sqlite|serve-1node|serve-3node)")
	flag.Int64Var(&c.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&c.seconds, "seconds", 25, "how long a run repeats its work")
	flag.IntVar(&trace, "trace", 0, "1 = report per-layer metrics from a traced run")
	flag.Parse()
	c.trace = trace != 0

	run, ok := workloadRunners[c.workload]
	if !ok {
		names := make([]string, 0, len(workloadRunners))
		for n := range workloadRunners {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %v)\n", c.workload, names)
		os.Exit(2)
	}
	res, err := run(c)
	if err == nil {
		err = checkMetrics(c.root, c.trace, res)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
