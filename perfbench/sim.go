package main

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sgxbounds/internal/bench"
	"sgxbounds/internal/machine"
	"sgxbounds/internal/perf"
	"sgxbounds/internal/telemetry"
	"sgxbounds/internal/workloads"
)

// simChildArg selects the child mode: the simulating process, which the
// parent times from its exec.
const simChildArg = "sim-child"

// setupProbes is how many times a sim run starts the simulating process
// only to its first cell; setup_s is their median.
const setupProbes = 9

// minPasses is the fewest passes over its rows a timed sim run makes,
// however short its -seconds.
const minPasses = 3

// simRows are the rows of each experiment's table that a sim run computes,
// pass after pass. A pass takes about 2.5 s on a 2-vCPU host, so a run
// times every cell several times: the whole experiments take 10-40 s
// there, and one run of them measured only how busy the host was.
// fig7's rows mix hash-table churn (wordcount), bounds-checked FP loops
// (swaptions) and two short scans; fig1's 24000-item row pages the EPC
// under every policy.
var simRows = map[string][]string{
	"fig7": {"histogram", "string_match", "wordcount", "swaptions"},
	"fig1": {"24000"},
}

// simCounts are the exact simulated counts of one pass, summed over its
// cells.
type simCounts struct {
	Instr, Loads, Stores  uint64
	L1, L2, L3, DRAM      uint64 // accesses served per level; DRAM includes faulting ones
	EPCFaults, ColdFaults uint64
	Evictions             uint64 // from telemetry, -evictions runs only
	Checks, Allocs, Frees uint64
	PeakReservedBytes     uint64 // largest cell's peak
	Fingerprint           string // hash of every cell's counters, in cell order
}

// passTimes are the process CPU time stamps of one pass, ns.
type passTimes struct {
	CellStartCPU []int64 `json:"cell_start_cpu"`
	EndCPU       int64   `json:"end_cpu"` // the last cell finished
}

// childReport is what the simulating process hands back to the parent.
// Counts, cells and runtime statistics are per pass.
type childReport struct {
	FirstCellCPU int64       `json:"first_cell_cpu"` // process CPU time at the first cell, ns
	Passes       []passTimes `json:"passes"`
	CellsRun     int         `json:"cells_run"`
	CellsCached  int         `json:"cells_cached"`
	Mallocs      float64     `json:"mallocs"`
	GCSeconds    float64     `json:"gc_s"`
	Counts       simCounts
	Mismatch     string `json:"mismatch"` // how a pass differed from the first
}

// simChild runs an experiment's simRows, or with -cells the single-cell
// grid jobs listed in a JSON file, pass after pass on a fresh one-worker
// engine each, until -seconds are used and at least -passes are done. It
// writes the first pass's table to <out>.txt and a childReport to
// <out>.json. With -probe it exits at the first cell; with -cpuprofile it
// profiles the run; with -evictions it attaches a telemetry collector,
// whose counters are the only source of the EPC eviction count, and so is
// never the profiled run.
func simChild(args []string) int {
	fs := flag.NewFlagSet(simChildArg, flag.ContinueOnError)
	exp := fs.String("experiment", "", "experiment")
	out := fs.String("out", "", "output base path")
	probe := fs.Bool("probe", false, "exit at the first cell")
	cpuprofile := fs.String("cpuprofile", "", "CPU profile path")
	evictions := fs.Bool("evictions", false, "count EPC evictions through telemetry")
	cellsFile := fs.String("cells", "", "JSON list of single-cell grid jobs to run instead of an experiment")
	seconds := fs.Float64("seconds", 0, "keep starting passes while one more fits in this time")
	passes := fs.Int("passes", 1, "fewest passes")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var jobs []bench.Job
	if *cellsFile != "" {
		raw, err := os.ReadFile(*cellsFile)
		if err == nil {
			err = json.Unmarshal(raw, &jobs)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	var rep childReport
	var first string
	start := time.Now()
	before := readRuntime()
	var longest time.Duration
	for len(rep.Passes) < *passes || time.Since(start)+longest < time.Duration(*seconds*float64(time.Second)) {
		var pt passTimes
		eng := bench.NewEngine(1)
		eng.CellHook = func(string) {
			if len(rep.Passes) == 0 && len(pt.CellStartCPU) == 0 {
				rep.FirstCellCPU = int64(processCPU())
				if *probe {
					writeReport(*out, &rep)
					os.Exit(0)
				}
			}
			pt.CellStartCPU = append(pt.CellStartCPU, int64(processCPU()))
		}
		if *evictions {
			eng.Telemetry = telemetry.NewCollector(telemetry.Options{Metrics: true})
		}
		var table strings.Builder
		t := time.Now()
		cells, err := runCells(eng, *exp, jobs, &table)
		pt.EndCPU = int64(processCPU())
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		longest = max(longest, time.Since(t))
		counts := sumCells(cells)
		if eng.Telemetry != nil {
			for _, p := range eng.Telemetry.Profiles() {
				counts.Evictions += p.Metrics.Snapshot().Counters["run.epc_evictions"]
			}
		}
		if len(rep.Passes) == 0 {
			first = table.String()
			rep.Counts = counts
			rep.CellsCached, rep.CellsRun = eng.CacheStats()
		} else if table.String() != first || counts != rep.Counts {
			rep.Mismatch = fmt.Sprintf("pass %d's table or simulated counts differ from the first pass's", len(rep.Passes)+1)
		}
		rep.Passes = append(rep.Passes, pt)
	}
	after := readRuntime()
	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	n := float64(len(rep.Passes))
	rep.Mallocs = float64(after.mallocs-before.mallocs) / n
	rep.GCSeconds = (after.gcSeconds - before.gcSeconds) / n
	if err := os.WriteFile(*out+".txt", []byte(first), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if err := writeReport(*out, &rep); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

func writeReport(out string, rep *childReport) error {
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	return os.WriteFile(out+".json", b, 0o644)
}

type runtimeStats struct {
	mallocs   uint64
	gcSeconds float64
}

func readRuntime() runtimeStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeStats{mallocs: s[0].Value.Uint64(), gcSeconds: s[1].Value.Float64()}
}

// cell is one simulated cell's counters and peak reserved memory.
type cell struct {
	totals perf.Counters
	peak   uint64
}

// runCells runs exp's simRows the way sgxbench runs the whole experiment,
// writing its tables to w, and returns the cells in sorted key order. With
// jobs it runs those single-cell grid jobs instead, in order, the way sgxd
// does.
func runCells(eng *bench.Engine, exp string, jobs []bench.Job, w io.Writer) ([]cell, error) {
	var cells []cell
	switch {
	case jobs != nil:
		for _, j := range jobs {
			wl, err := workloads.Get(j.Workloads[0])
			if err != nil {
				return nil, err
			}
			size, err := bench.ParseSize(j.Size)
			if err != nil {
				return nil, err
			}
			r := eng.RunGrid(w, []workloads.Workload{wl}, j.Policies, size, j.Threads, machine.DefaultConfig())[wl.Name][j.Policies[0]]
			cells = append(cells, cell{r.Totals, r.PeakReserved})
		}
	case exp == "fig7":
		var ws []workloads.Workload
		for _, name := range simRows[exp] {
			wl, err := workloads.Get(name)
			if err != nil {
				return nil, err
			}
			ws = append(ws, wl)
		}
		// The arguments of Engine.Fig7, on the rows only.
		grid := eng.SuiteComparison(w, "Figure 7 (Phoenix+PARSEC)", ws, workloads.L, bench.DefaultThreads, machine.DefaultConfig())
		for _, wl := range sortedKeys(grid) {
			for _, pol := range sortedKeys(grid[wl]) {
				r := grid[wl][pol]
				cells = append(cells, cell{r.Totals, r.PeakReserved})
			}
		}
	case exp == "fig1":
		var items []uint32
		for _, row := range simRows[exp] {
			n, err := strconv.ParseUint(row, 10, 32)
			if err != nil {
				return nil, err
			}
			items = append(items, uint32(n))
		}
		rows := eng.Fig1Sweep(w, items)
		for _, items := range sortedKeys(rows) {
			for _, pol := range sortedKeys(rows[items]) {
				r := rows[items][pol]
				cells = append(cells, cell{r.Totals, r.PeakReserved})
			}
		}
	default:
		return nil, fmt.Errorf("experiment %q is not a sim workload", exp)
	}
	return cells, nil
}

func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// sumCells sums the simulated counters of cells and fingerprints them in
// order.
func sumCells(cells []cell) simCounts {
	var c simCounts
	h := sha256.New()
	for _, cl := range cells {
		t := cl.totals
		fmt.Fprintf(h, "%+v %d\n", t, cl.peak)
		c.Instr += t.Instr
		c.Loads += t.Loads
		c.Stores += t.Stores
		c.L1 += t.Hits[perf.L1]
		c.L2 += t.Hits[perf.L2]
		c.L3 += t.Hits[perf.L3]
		c.DRAM += t.LLCMisses()
		c.EPCFaults += t.PageFaults
		c.ColdFaults += t.ColdFaults
		c.Checks += t.Checks
		c.Allocs += t.Allocs
		c.Frees += t.Frees
		c.PeakReservedBytes = max(c.PeakReservedBytes, cl.peak)
	}
	c.Fingerprint = hex.EncodeToString(h.Sum(nil))
	return c
}

// simRun is one execution of the simulating process.
type simRun struct {
	rep    childReport
	table  string
	setup  time.Duration // CPU time from exec to the first cell
	rssMB  float64
	cellMS dist    // every cell's least CPU time over the passes
	bestMS float64 // their sum: one pass at each cell's best
}

// startChild runs the simulating process and collects its report.
func startChild(c config, exp, tag string, extra ...string) (simRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return simRun{}, err
	}
	out := c.path("sim", tag)
	os.Remove(out + ".json")
	args := append([]string{simChildArg, "-experiment", exp, "-out", out}, extra...)
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return simRun{}, fmt.Errorf("simulating process: %w", err)
	}
	var r simRun
	raw, err := os.ReadFile(out + ".json")
	if err != nil {
		return simRun{}, err
	}
	if err := json.Unmarshal(raw, &r.rep); err != nil {
		return simRun{}, err
	}
	r.setup = time.Duration(r.rep.FirstCellCPU)
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.rssMB = float64(ru.Maxrss) / 1024 // KiB on Linux
	}
	if len(r.rep.Passes) == 0 {
		return r, nil // a probe
	}
	table, err := os.ReadFile(out + ".txt")
	if err != nil {
		return simRun{}, err
	}
	r.table = string(table)
	// On a shared host a cell's wall time is its cost plus whatever other
	// processes and tenants took from it. CPU time leaves out the time the
	// process waited, and the best of several passes the time its CPU ran
	// slowed by its neighbours.
	for _, p := range r.rep.Passes {
		ends := append(p.CellStartCPU[1:len(p.CellStartCPU):len(p.CellStartCPU)], p.EndCPU)
		for i, s := range p.CellStartCPU {
			t := float64(ends[i]-s) / 1e6
			if i == len(r.cellMS) {
				r.cellMS = append(r.cellMS, t)
			}
			r.cellMS[i] = min(r.cellMS[i], t)
		}
	}
	for _, t := range r.cellMS {
		r.bestMS += t
	}
	return r, nil
}

// checkSim is the correctness gate of one run: every pass must print the
// same table and simulated counts, the table's rows must be those of the
// experiment's section of experiments_output.txt, and the counts must
// repeat those of every earlier run of the same build.
func checkSim(c config, exp string, r simRun) error {
	if r.rep.Mismatch != "" {
		return errors.New(r.rep.Mismatch)
	}
	raw, err := os.ReadFile(c.root + "/experiments_output.txt")
	if err != nil {
		return err
	}
	want, err := goldenSection(string(raw), exp)
	if err != nil {
		return err
	}
	if err := checkRows(r.table, want); err != nil {
		return fmt.Errorf("%s output differs from experiments_output.txt: %w", exp, err)
	}
	id, err := buildID()
	if err != nil {
		return err
	}
	state := c.path("state", "counts-"+exp+"-"+id)
	prev, err := os.ReadFile(state)
	switch {
	case errors.Is(err, os.ErrNotExist):
		return os.WriteFile(state, []byte(r.rep.Counts.Fingerprint), 0o644)
	case err != nil:
		return err
	case string(prev) != r.rep.Counts.Fingerprint:
		return fmt.Errorf("%s simulated counts differ from an earlier run of this build", exp)
	}
	return nil
}

// buildID identifies the benchmark binary, and with it the simulator code
// linked into it.
func buildID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// profiledPasses is how many passes the traced run's CPU-profiled child
// makes; its layer times are per pass.
const profiledPasses = 3

// runSim measures an experiment's rows. Untraced: setup_s (median of
// setupProbes starts), then passes over the rows for the run's seconds,
// for result_cpu_ms and peak_rss_mb. Traced: the same untraced run, a
// CPU-profiled one of profiledPasses passes, and one pass that counts EPC
// evictions through telemetry, whose cost would otherwise land in the
// profile.
func runSim(c config, exp string) (result, error) {
	res := result{Attempted: 1}
	cpu0 := readCPU()
	full, err := startChild(c, exp, "run", "-seconds", fmt.Sprint(c.seconds), "-passes", fmt.Sprint(minPasses))
	steal := stealPct(cpu0, readCPU())
	if err != nil {
		return res, err
	}
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "perfbench: correctness:", err)
		res.Failed = 1
	}
	if err := checkSim(c, exp, full); err != nil {
		fail(err)
	}
	accesses := float64(full.rep.Counts.Loads + full.rep.Counts.Stores)
	if !c.trace {
		var setups dist
		for i := 0; i < setupProbes; i++ {
			p, err := startChild(c, exp, "probe", "-probe")
			if err != nil {
				return res, err
			}
			setups = append(setups, p.setup.Seconds())
		}
		res.set("setup_s", setups.median(), "s")
		res.set("result_cpu_ms", full.bestMS, "ms")
		res.set("peak_rss_mb", full.rssMB, "MB")
		fmt.Printf("%s %v: %d passes of %d cells, %.1f CPU ms per pass at each cell's best, %.0f simulated accesses per pass, setup p50 %.4fs over %d starts, host steal %.1f%%\n",
			exp, simRows[exp], len(full.rep.Passes), len(full.cellMS), full.bestMS, accesses, setups.median(), setupProbes, steal)
		res.Correct = res.Failed == 0
		return res, nil
	}

	profile := c.path("sim", "cpu.pprof")
	traced, err := startChild(c, exp, "traced", "-cpuprofile", profile, "-passes", fmt.Sprint(profiledPasses))
	if err != nil {
		return res, err
	}
	if err := checkSim(c, exp, traced); err != nil {
		fail(err)
	}
	counted, err := startChild(c, exp, "evictions", "-evictions")
	if err != nil {
		return res, err
	}
	if err := checkSim(c, exp, counted); err != nil {
		fail(err)
	}
	if err := simLayerMetrics(&res, profile, len(traced.rep.Passes), full, counted.rep.Counts.Evictions); err != nil {
		return res, err
	}
	noService(&res)
	res.set("trace.overhead_pct", (traced.bestMS/full.bestMS-1)*100, "%")
	res.set("host.steal_pct", steal, "%")
	fmt.Printf("%s: %.1f CPU ms per pass untraced, %.1f profiled; %s\n", exp, full.bestMS,
		traced.bestMS, full.cellMS.tailNote("bench.cell_ms_tail"))
	res.Correct = res.Failed == 0
	return res, nil
}

// simLayerMetrics sets the simulator's per-layer metrics of one pass: host
// seconds per layer folded from profile, a run of passes passes, and the
// exact counts, runtime statistics and cell times of run, a run of the
// same cells without the profiler.
func simLayerMetrics(res *result, profile string, passes int, run simRun, evictions uint64) error {
	layers, err := foldProfile(profile)
	if err != nil {
		return err
	}
	for l := range layers {
		layers[l] /= float64(passes)
	}
	n := run.rep.Counts
	accesses := float64(n.Loads + n.Stores)
	for _, l := range simLayers {
		res.set(l+".host_s", layers[l], "s")
	}
	for _, l := range []string{"machine", "cache", "mem", "enclave"} {
		res.set(l+".ns_per_access", layers[l]*1e9/accesses, "ns")
	}
	res.set("machine.loads", float64(n.Loads), "count")
	res.set("machine.stores", float64(n.Stores), "count")
	res.set("machine.instr", float64(n.Instr), "count")
	res.set("cache.l1_hits", float64(n.L1), "count")
	res.set("cache.l2_hits", float64(n.L2), "count")
	res.set("cache.l3_hits", float64(n.L3), "count")
	res.set("cache.dram", float64(n.DRAM), "count")
	res.set("cache.l1_hit_ratio", float64(n.L1)/accesses, "ratio")
	res.set("enclave.epc_faults", float64(n.EPCFaults), "count")
	res.set("enclave.cold_faults", float64(n.ColdFaults), "count")
	res.set("enclave.evictions", float64(evictions), "count")
	res.set("harden.checks", float64(n.Checks), "count")
	res.set("alloc.allocs", float64(n.Allocs), "count")
	res.set("alloc.frees", float64(n.Frees), "count")
	res.set("mem.peak_reserved_mb", float64(n.PeakReservedBytes)/(1<<20), "MB")
	res.set("runtime.mallocs", run.rep.Mallocs, "count")
	res.set("runtime.gc_s", run.rep.GCSeconds, "s")
	res.set("bench.cell_ms_p50", run.cellMS.median(), "ms")
	res.set("bench.cell_ms_tail", run.cellMS.tailValue(), "ms")
	res.set("bench.cells_run", float64(run.rep.CellsRun), "count")
	res.set("bench.cells_cached", float64(run.rep.CellsCached), "count")
	return nil
}
