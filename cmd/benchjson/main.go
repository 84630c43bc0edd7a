// Command benchjson converts `go test -bench` text output into a JSON
// record, optionally augmented with an in-process cold/warm measurement of
// the sgxd serving path (-serve EXPERIMENT). `make bench-json` pipes the
// benchmark sweep through it to refresh BENCH_serve.json:
//
//	go test -bench=. -benchmem ./... | benchjson -serve fig1 > BENCH_serve.json
//
// The serve measurement submits the experiment twice against a fresh store:
// the first (cold) submission simulates every cell, the second (warm) must
// come back from disk with zero simulated cells — the daemon's headline
// win. Timings are wall-clock on the current host.
//
// -stress instead records the stress-kernel headline data (the epc-thrash
// paging cliff and the multitask task-count sweep, per policy) as
// structured cells; `make bench-json` commits it as BENCH_stress.json.
//
// -cluster-churn FILE boots an in-process 3-node fleet, measures the
// submit path under fixed-rate load, joins a fourth node mid-load, and
// merges the two phase reports ("3node-static" vs "join-under-load") into
// FILE's {"runs": {...}} map; `make bench-json` points it at
// BENCH_cluster.json. See cluster.go.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"sgxbounds/internal/bench"
	"sgxbounds/internal/serve"
	"sgxbounds/internal/serve/sched"
	"sgxbounds/internal/serve/store"
	"sgxbounds/internal/stress"
	"sgxbounds/internal/workloads"
)

// Benchmark is one parsed `go test -bench` result line.
type Benchmark struct {
	Name    string             `json:"name"`
	Runs    int64              `json:"runs"`
	Metrics map[string]float64 `json:"metrics"` // unit -> value (ns/op, B/op, ...)
}

// ServeResult is the cold/warm comparison of the sgxd serving path.
type ServeResult struct {
	Experiment    string  `json:"experiment"`
	ColdMS        int64   `json:"cold_ms"`
	ColdCells     int     `json:"cold_cells"`
	WarmMS        int64   `json:"warm_ms"`
	WarmCells     int     `json:"warm_cells"`
	WarmFromStore bool    `json:"warm_from_store"`
	Speedup       float64 `json:"speedup"`
}

// StressCell is one (size, policy) cell of a stress-kernel sweep.
type StressCell struct {
	Size            string  `json:"size"`
	Param           uint64  `json:"param"` // kernel parameter: ws_bytes or tasks
	Policy          string  `json:"policy"`
	Outcome         string  `json:"outcome"`
	Cycles          uint64  `json:"cycles"`
	Accesses        uint64  `json:"accesses"`
	CyclesPerAccess float64 `json:"cycles_per_access"`
	WarmFaults      uint64  `json:"warm_faults,omitempty"`
	ColdFaults      uint64  `json:"cold_faults,omitempty"`
	PeakReserved    uint64  `json:"peak_reserved_bytes,omitempty"`
}

// StressResult is the headline stress data: the epc-thrash paging cliff
// and the multitask task-count sweep, one cell per (size, policy).
type StressResult struct {
	EPCBytes  uint64       `json:"epc_bytes"` // effective capacity of the thrash sweep
	Thrash    []StressCell `json:"epc_thrash"`
	Multitask []StressCell `json:"multitask"`
}

// Output is the document benchjson emits.
type Output struct {
	GeneratedUnix int64         `json:"generated_unix"`
	SimVersion    string        `json:"sim_version"`
	Serve         *ServeResult  `json:"serve,omitempty"`
	Stress        *StressResult `json:"stress,omitempty"`
	Benchmarks    []Benchmark   `json:"benchmarks,omitempty"`
}

func main() {
	serveExp := flag.String("serve", "", "also measure cold/warm serving of this experiment")
	stressRun := flag.Bool("stress", false, "record the stress-kernel headline sweeps (epc-thrash, multitask)")
	parallel := flag.Int("parallel", 0, "engine workers for the serve measurement")
	churnOut := flag.String("cluster-churn", "", "measure membership-churn submit latency and merge the runs into this file")
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")

	if *churnOut != "" {
		if err := measureClusterChurn(*churnOut); err != nil {
			log.Fatal(err)
		}
		log.Printf("merged 3node-static and join-under-load into %s", *churnOut)
		return
	}

	out := Output{
		GeneratedUnix: time.Now().Unix(),
		SimVersion:    bench.SimVersion,
	}
	if fi, err := os.Stdin.Stat(); err == nil && fi.Mode()&os.ModeCharDevice == 0 {
		benches, err := parseBench(os.Stdin)
		if err != nil {
			log.Fatal(err)
		}
		out.Benchmarks = benches
	}
	if *serveExp != "" {
		res, err := measureServe(*serveExp, *parallel)
		if err != nil {
			log.Fatal(err)
		}
		out.Serve = res
	}
	if *stressRun {
		out.Stress = measureStress(*parallel)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		log.Fatal(err)
	}
}

// measureStress runs the epc-thrash and multitask sweeps in-process (table
// text goes to stderr; the JSON cells are the committed artifact).
func measureStress(parallel int) *StressResult {
	eng := bench.NewEngine(parallel)
	thrash := stress.EPCThrash(eng, os.Stderr, stress.AllSizes, 0)
	multi := stress.Multitask(eng, os.Stderr, stress.AllSizes)
	res := &StressResult{EPCBytes: thrash.EPCBytes}
	for _, size := range stress.AllSizes {
		for _, pol := range bench.PolicyNames {
			if r, ok := thrash.Cells[size][pol]; ok {
				res.Thrash = append(res.Thrash, stressCell(size, uint64(thrash.WS[size]), pol, r))
			}
			if r, ok := multi.Cells[size][pol]; ok {
				res.Multitask = append(res.Multitask, stressCell(size, multi.Param[size], pol, r))
			}
		}
	}
	return res
}

func stressCell(size workloads.Size, param uint64, pol string, r bench.Result) StressCell {
	c := StressCell{
		Size:         size.String(),
		Param:        param,
		Policy:       pol,
		Outcome:      r.Outcome.String(),
		Cycles:       r.Cycles,
		Accesses:     r.Totals.Accesses(),
		WarmFaults:   r.Totals.PageFaults,
		ColdFaults:   r.Totals.ColdFaults,
		PeakReserved: r.PeakReserved,
	}
	if c.Accesses != 0 {
		c.CyclesPerAccess = float64(c.Cycles) / float64(c.Accesses)
	}
	return c
}

// parseBench extracts Benchmark lines from `go test -bench` output:
//
//	BenchmarkFig1SQLite-8   1  1409031234 ns/op  3.21 x-overhead
func parseBench(r *os.File) ([]Benchmark, error) {
	var out []Benchmark
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		runs, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		b := Benchmark{Name: fields[0], Runs: runs, Metrics: map[string]float64{}}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			b.Metrics[fields[i+1]] = v
		}
		out = append(out, b)
	}
	return out, sc.Err()
}

// measureServe runs the cold/warm submission pair against an in-process
// server over a fresh temp store.
func measureServe(experiment string, parallel int) (*ServeResult, error) {
	dir, err := os.MkdirTemp("", "benchjson-store-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{Store: st, Workers: 1, Parallel: parallel})
	if err != nil {
		return nil, err
	}
	defer srv.Shutdown(context.Background())

	runOnce := func() (sched.JobStatus, time.Duration, error) {
		start := time.Now()
		j, err := srv.Submit(sched.SubmitRequest{Experiment: experiment})
		if err != nil {
			return sched.JobStatus{}, 0, err
		}
		<-j.Done()
		stat := j.Status()
		if stat.State != sched.StateDone {
			return stat, 0, fmt.Errorf("job %s ended %s: %s", stat.ID, stat.State, stat.Error)
		}
		return stat, time.Since(start), nil
	}

	cold, coldDur, err := runOnce()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "benchjson: cold %s in %v (%d cells)\n", experiment, coldDur, cold.Cells.Runs)
	warm, warmDur, err := runOnce()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "benchjson: warm %s in %v (%d cells, from_store=%v)\n",
		experiment, warmDur, warm.Cells.Runs, warm.FromStore)
	if !warm.FromStore || warm.Cells.Runs != 0 {
		return nil, fmt.Errorf("warm submission was not served from the store (cells=%d)", warm.Cells.Runs)
	}
	res := &ServeResult{
		Experiment:    experiment,
		ColdMS:        coldDur.Milliseconds(),
		ColdCells:     cold.Cells.Runs,
		WarmMS:        warmDur.Milliseconds(),
		WarmCells:     warm.Cells.Runs,
		WarmFromStore: warm.FromStore,
	}
	if warmDur > 0 {
		res.Speedup = float64(coldDur) / float64(warmDur)
	}
	return res, nil
}
