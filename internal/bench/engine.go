package bench

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sgxbounds/internal/core"
	"sgxbounds/internal/harden"
	"sgxbounds/internal/machine"
	"sgxbounds/internal/telemetry"
	"sgxbounds/internal/workloads"
)

// canceledOutcome is the outcome of a cell the engine never ran because its
// context was already cancelled.
func canceledOutcome() harden.Outcome { return harden.Outcome{Canceled: true} }

// Engine schedules experiment cells. Every cell — one Run(Spec), one
// RunSpeedtest, one MeasureApp — builds a private machine.Machine and shares
// no state with any other cell, so the engine fans independent cells across
// a bounded pool of host goroutines and reassembles the results in the
// deterministic order the caller asked for. Formatter output is therefore
// byte-identical for every worker count, including 1.
//
// The engine also memoises cells: the paper's figures overlap heavily
// (Figure 8's L-size column is Figure 7's grid, Figure 10's baselines are
// Figure 7's sgx row), so within one `sgxbench -experiment all` invocation a
// (workload, policy, size, threads, config) cell runs at most once.
type Engine struct {
	workers int

	// Progress, when non-nil, receives throttled progress lines (cells
	// done / total, cells per second, simulated cycles by policy). Rates
	// depend on wall clock, so Progress must not be mixed into the
	// deterministic table output; commands point it at stderr. Workers
	// write it concurrently, so it must be safe for concurrent use.
	Progress io.Writer

	// Telemetry, when non-nil, attaches a per-cell profile to every cell the
	// engine executes. Profiles are keyed by the cell's canonical label
	// (derived from the resolved spec), so duplicate cells across figures —
	// which the engine memoises into one execution — share one profile and
	// attribution survives -parallel scheduling. Nil leaves telemetry off.
	Telemetry *telemetry.Collector

	// cancel, when non-nil, aborts the engine: queued cells are skipped and
	// running cells panic out of the simulation at their next hierarchy
	// probe (machine.Config.Cancel). Set by BindContext.
	cancel *atomic.Bool

	// CellHook, when non-nil, runs at the start of every cell the engine
	// actually executes (cache hits skip it), keyed by the cell's canonical
	// label. It is the fault-injection seam: a hook may sleep (slow cell),
	// panic (poison cell — unwound like any workload panic, so one poisoned
	// cell fails the experiment without killing the process), or abort the
	// process outright (crash testing). It must not mutate engine state.
	CellHook func(label string)

	mu           sync.Mutex
	cells        map[specKey]Result
	apps         map[appKey]AppResult
	speed        map[speedKey]Fig1Row
	done, total  int
	hits         int
	policyCycles map[string]uint64
	start        time.Time
	lastNote     time.Time
}

// NewEngine returns an engine running up to workers cells concurrently;
// workers <= 0 selects GOMAXPROCS.
func NewEngine(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{
		workers:      workers,
		cells:        make(map[specKey]Result),
		apps:         make(map[appKey]AppResult),
		speed:        make(map[speedKey]Fig1Row),
		policyCycles: make(map[string]uint64),
	}
}

// Workers returns the engine's concurrency bound.
func (e *Engine) Workers() int { return e.workers }

// BindContext ties the engine's lifetime to ctx: when ctx is cancelled,
// cells that have not started are skipped and cells in flight abort at
// their next memory-hierarchy probe, unwinding as a Canceled outcome.
// Canceled cells are never cached, and their results (zeroes or partial
// counters) must be discarded along with any table text rendered from
// them. Call before the first cell runs.
func (e *Engine) BindContext(ctx context.Context) {
	flag := new(atomic.Bool)
	if ctx.Err() != nil {
		// AfterFunc would fire asynchronously even for an already-dead
		// context; an engine bound to one must refuse cells immediately.
		flag.Store(true)
	} else {
		context.AfterFunc(ctx, func() { flag.Store(true) })
	}
	e.cancel = flag
}

// Canceled reports whether the engine's bound context has been cancelled.
func (e *Engine) Canceled() bool { return e.cancel != nil && e.cancel.Load() }

// CacheStats returns how many cells were served from the cache and how many
// were actually executed.
func (e *Engine) CacheStats() (hits, runs int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.hits, e.done
}

// specKey is the canonical identity of one Run cell: the Spec after default
// resolution, with the policy options flattened to their comparable fields.
// Spec itself cannot be a map key because core.Options embeds function-typed
// hooks; cells with active hooks are simply not cached (no benchmark uses
// them).
type specKey struct {
	workload string
	policy   string
	size     workloads.Size
	threads  int
	config   machine.Config
	opts     optKey
}

type optKey struct {
	boundless, safeElision, hoisting bool
	extraMetaWords                   int
	boundlessCapBytes                uint32
}

type appKey struct {
	app, policy string
	requests    int
}

type speedKey struct {
	policy string
	items  uint32
}

func hooksActive(h core.Hooks) bool {
	return h.OnCreate != nil || h.OnAccess != nil || h.OnDelete != nil
}

// canonicalKey resolves spec's defaults exactly as Run does and returns its
// cache key. ok is false when the cell is uncacheable (active hooks).
func canonicalKey(spec Spec) (specKey, bool) {
	if spec.Threads == 0 {
		spec.Threads = 1
	}
	if spec.Config.L1.Size == 0 {
		spec.Config = machine.DefaultConfig()
	}
	// The attached telemetry profile and cancel flag are side channels,
	// never part of the cell's identity: cells differing only in them are
	// the same cell.
	spec.Config.Tel = nil
	spec.Config.Cancel = nil
	var opts core.Options
	if spec.Policy == "sgxbounds" {
		// Only the SGXBounds policy consumes CoreOpts; flattening the
		// options for everyone else lets e.g. a Figure 10 baseline hit the
		// same cell as a Figure 7 one.
		opts = spec.CoreOpts
		if !spec.CoreOptsSet {
			opts = core.AllOptimizations()
		}
	}
	if hooksActive(opts.Hooks) {
		return specKey{}, false
	}
	return specKey{
		workload: spec.Workload,
		policy:   spec.Policy,
		size:     spec.Size,
		threads:  spec.Threads,
		config:   spec.Config,
		opts: optKey{
			boundless:         opts.Boundless,
			safeElision:       opts.SafeElision,
			hoisting:          opts.Hoisting,
			extraMetaWords:    opts.ExtraMetaWords,
			boundlessCapBytes: opts.BoundlessCapBytes,
		},
	}, true
}

// specLabel derives the canonical, human-readable label of a Run cell from
// its resolved key: "workload/policy/SIZE/tN", with suffixes only for
// departures from the evaluation's defaults (native = outside the enclave,
// mbN = non-default enclave budget in MiB, epcN = non-default EPC pages,
// opts... = a Figure 10 ablation variant). The label is what telemetry
// profiles and sgxtrace reports key on.
func specLabel(k specKey) string {
	label := fmt.Sprintf("%s/%s/%s/t%d", k.workload, k.policy, k.size, k.threads)
	if !k.config.Enclave.Enabled {
		label += "/native"
	} else {
		if k.config.MemoryBudget != machine.DefaultMemoryBudget {
			label += fmt.Sprintf("/mb%d", k.config.MemoryBudget>>20)
		}
		if k.config.Enclave.EPCBytes != 0 {
			label += fmt.Sprintf("/epc%d", k.config.Enclave.EPCBytes>>12)
		}
	}
	if k.policy == "sgxbounds" && k.opts != (optKey{safeElision: true, hoisting: true}) {
		label += "/opts"
		if k.opts.boundless {
			label += "+boundless"
		}
		if k.opts.safeElision {
			label += "+safe"
		}
		if k.opts.hoisting {
			label += "+hoist"
		}
		if k.opts.extraMetaWords != 0 {
			label += fmt.Sprintf("+meta%d", k.opts.extraMetaWords)
		}
		if k.opts.boundlessCapBytes != 0 {
			label += fmt.Sprintf("+cap%d", k.opts.boundlessCapBytes)
		}
	}
	return label
}

// attach resolves the profile for an executing cell (nil when telemetry is
// off).
func (e *Engine) attach(label string) *telemetry.Profile {
	if e.Telemetry == nil {
		return nil
	}
	return e.Telemetry.Attach(label)
}

// cellStart announces an executing cell to the CellHook, if any.
func (e *Engine) cellStart(label string) {
	if e.CellHook != nil {
		e.CellHook(label)
	}
}

// Run executes one cell through the engine's cache.
func (e *Engine) Run(spec Spec) Result {
	key, cacheable := canonicalKey(spec)
	if cacheable {
		e.mu.Lock()
		if r, ok := e.cells[key]; ok {
			e.hits++
			e.mu.Unlock()
			return r
		}
		e.mu.Unlock()
		spec.Config.Tel = e.attach(specLabel(key))
	}
	if e.Canceled() {
		return Result{Spec: spec, Outcome: canceledOutcome()}
	}
	if cacheable {
		e.cellStart(specLabel(key))
	} else {
		e.cellStart(spec.Workload + "/" + spec.Policy)
	}
	spec.Config.Cancel = e.cancel
	e.addTotal(1)
	r := Run(spec)
	if cacheable && !r.Outcome.Canceled {
		e.mu.Lock()
		e.cells[key] = r
		e.mu.Unlock()
	}
	e.noteDone(spec.Policy, r.Totals.Cycles)
	return r
}

// RunAll executes the specs (deduplicated against each other and the cache)
// on the worker pool and returns their results in input order.
func (e *Engine) RunAll(specs []Spec) []Result {
	results := make([]Result, len(specs))
	keys := make([]specKey, len(specs))
	cacheable := make([]bool, len(specs))

	// Collect the cells that actually need to run: the first spec for each
	// uncached key, plus every uncacheable spec.
	var jobs []int
	owner := make(map[specKey]int, len(specs))
	e.mu.Lock()
	for i, s := range specs {
		keys[i], cacheable[i] = canonicalKey(s)
		if !cacheable[i] {
			jobs = append(jobs, i)
			continue
		}
		if r, ok := e.cells[keys[i]]; ok {
			results[i] = r
			e.hits++
			continue
		}
		if _, ok := owner[keys[i]]; !ok {
			owner[keys[i]] = i
			jobs = append(jobs, i)
		} else {
			e.hits++
		}
	}
	e.total += len(jobs)
	e.mu.Unlock()

	e.runJobs(len(jobs), func(j int) {
		i := jobs[j]
		s := specs[i]
		if cacheable[i] {
			s.Config.Tel = e.attach(specLabel(keys[i]))
		}
		if e.Canceled() {
			results[i] = Result{Spec: s, Outcome: canceledOutcome()}
			return
		}
		if cacheable[i] {
			e.cellStart(specLabel(keys[i]))
		} else {
			e.cellStart(s.Workload + "/" + s.Policy)
		}
		s.Config.Cancel = e.cancel
		r := Run(s)
		results[i] = r
		if cacheable[i] && !r.Outcome.Canceled {
			e.mu.Lock()
			e.cells[keys[i]] = r
			e.mu.Unlock()
		}
		e.noteDone(specs[i].Policy, r.Totals.Cycles)
	})

	// Fill the duplicates from the now-populated cache. A duplicate whose
	// owner cell was cancelled has no cache entry; it is cancelled too.
	e.mu.Lock()
	for i := range specs {
		if cacheable[i] && results[i].Spec.Workload == "" {
			if r, ok := e.cells[keys[i]]; ok {
				results[i] = r
			} else {
				results[i] = Result{Spec: specs[i], Outcome: canceledOutcome()}
			}
		}
	}
	e.mu.Unlock()
	return results
}

// runJobs executes n independent jobs with at most e.workers running
// concurrently. A panicking job does not abort the others; the first panic
// (in job order, for determinism) is re-raised after all jobs finish.
// Cancellation is the job functions' concern: every engine entry point
// checks e.Canceled() and returns a Canceled result without simulating.
func (e *Engine) runJobs(n int, job func(i int)) {
	if n == 0 {
		return
	}
	w := e.workers
	if w > n {
		w = n
	}
	panics := make([]any, n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			func(i int) {
				defer func() { panics[i] = recover() }()
				job(i)
			}(i)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		for k := 0; k < w; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					func(i int) {
						defer func() { panics[i] = recover() }()
						job(i)
					}(i)
				}
			}()
		}
		for i := 0; i < n; i++ {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}

// addTotal registers upcoming cells with the progress reporter.
func (e *Engine) addTotal(n int) {
	e.mu.Lock()
	e.total += n
	e.mu.Unlock()
}

// noteDone records one finished cell and emits a throttled progress line.
func (e *Engine) noteDone(policy string, cycles uint64) {
	e.mu.Lock()
	if e.start.IsZero() {
		e.start = time.Now()
	}
	e.done++
	e.policyCycles[policy] += cycles
	if e.Progress == nil {
		e.mu.Unlock()
		return
	}
	now := time.Now()
	if e.done < e.total && now.Sub(e.lastNote) < time.Second {
		e.mu.Unlock()
		return
	}
	e.lastNote = now
	line := e.progressLine(now)
	w := e.Progress
	e.mu.Unlock()
	fmt.Fprintln(w, line)
}

// progressLine renders the current progress state. Called with e.mu held.
func (e *Engine) progressLine(now time.Time) string {
	rate := 0.0
	if d := now.Sub(e.start).Seconds(); d > 0 {
		rate = float64(e.done) / d
	}
	line := fmt.Sprintf("cells %d/%d (%d cached, %.1f cells/s)", e.done, e.total, e.hits, rate)
	if len(e.policyCycles) > 0 {
		pols := make([]string, 0, len(e.policyCycles))
		for p := range e.policyCycles {
			pols = append(pols, p)
		}
		sort.Strings(pols)
		line += " cycles:"
		for _, p := range pols {
			line += fmt.Sprintf(" %s=%.3g", p, float64(e.policyCycles[p]))
		}
	}
	return line
}
