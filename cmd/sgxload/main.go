// sgxload is an open-loop load driver for sgxd's front door (in the
// Stress-SGX spirit: load the service envelope, not the simulator).
// It issues submissions at a fixed target rate regardless of how fast the
// daemon answers — the open-loop discipline that exposes queueing
// collapse, which closed-loop clients mask — with a configurable mix of
// identical jobs (exercising single-flight coalescing) and distinct jobs
// (exercising admission and the result tier), and records submit-latency
// percentiles, the coalescing ratio, and the 429/5xx rates as a JSON
// report on stdout (and in -out, when set).
//
// Cluster runs: -targets takes a comma-separated list of node URLs and
// round-robins submissions across them, adding a per-target breakdown
// (issued/accepted/429/retried/p50/p99) to the report. Transport failures
// retry with bounded, jittered backoff — a node restarting during
// membership churn briefly refuses connections, which is churn, not an
// outage — and retried submissions are counted separately from errors.
//
// Exit status: 0 on a clean run, 1 when an -assert-* flag fails, 2 on
// usage or connectivity errors.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

type cliConfig struct {
	addr      string
	targets   string
	rps       float64
	duration  time.Duration
	mix       float64
	identical string
	tenant    string
	timeout   time.Duration
	out       string

	assertCoalescing bool
	assertNo5xx      bool
}

// report is the JSON document sgxload prints.
type report struct {
	Config struct {
		Addr         string   `json:"addr"`
		Targets      []string `json:"targets,omitempty"`
		TargetRPS    float64  `json:"target_rps"`
		DurationSec  float64  `json:"duration_sec"`
		IdenticalMix float64  `json:"identical_mix"`
		IdenticalJob string   `json:"identical_job"`
	} `json:"config"`
	Totals struct {
		Issued    int `json:"issued"`
		Accepted  int `json:"accepted"`
		Coalesced int `json:"coalesced"`
		Computed  int `json:"computed"` // accepted submissions that became their own job
		Rejected  int `json:"rejected_429"`
		Server5xx int `json:"server_5xx"`
		Errors    int `json:"transport_errors"`
		// Retried counts submissions that needed at least one transport
		// retry but ultimately reached a node — expected (and reported
		// separately, not as errors) during membership churn, when a
		// restarting node briefly refuses connections.
		Retried int `json:"retried"`
	} `json:"totals"`
	// CoalescingRatio is accepted submissions per distinct job the daemon
	// actually had to own (1.0 = no sharing; N identical concurrent
	// submits ideally approach N).
	CoalescingRatio float64 `json:"coalescing_ratio"`
	Rate429         float64 `json:"rate_429"`
	LatencyMS       struct {
		P50  float64 `json:"p50"`
		P99  float64 `json:"p99"`
		P999 float64 `json:"p999"`
		Max  float64 `json:"max"`
		Mean float64 `json:"mean"`
	} `json:"submit_latency_ms"`
	AchievedRPS float64 `json:"achieved_rps"`
	// PerTarget breaks the run down by cluster node when -targets named
	// more than one; round-robin issue order makes the shares comparable.
	PerTarget []targetReport `json:"per_target,omitempty"`
	Unix      int64          `json:"unix"`
}

// targetReport is one node's share of a -targets run.
type targetReport struct {
	Target    string  `json:"target"`
	Issued    int     `json:"issued"`
	Accepted  int     `json:"accepted"`
	Rejected  int     `json:"rejected_429"`
	Server5xx int     `json:"server_5xx"`
	Errors    int     `json:"transport_errors"`
	Retried   int     `json:"retried"`
	P50MS     float64 `json:"p50_ms"`
	P99MS     float64 `json:"p99_ms"`
}

// distinctPool is the cycle of cheap single-cell grid jobs used for the
// non-identical share of the mix: every workload/policy pair is its own
// content address, so these never coalesce with each other or with the
// identical stream.
var (
	poolWorkloads = []string{"histogram", "linear_regression", "string_match", "matrixmul"}
	poolPolicies  = []string{"sgx", "mpx", "asan", "sgxbounds"}
)

func distinctBody(i int) []byte {
	w := poolWorkloads[i%len(poolWorkloads)]
	p := poolPolicies[(i/len(poolWorkloads))%len(poolPolicies)]
	b, _ := json.Marshal(map[string]any{
		"experiment": "grid",
		"workloads":  []string{w},
		"policies":   []string{p},
		"size":       "XS",
		"threads":    1,
	})
	return b
}

type outcome struct {
	target    int // index into the round-robin target list
	latency   time.Duration
	status    int
	coalesced bool
	retries   int // transport retries before this outcome settled
	err       error
}

// submitAttempts bounds the transport retries per submission: a node
// mid-restart during membership churn refuses connections for well under
// the total backoff this allows, and anything still refusing after that
// is a real outage worth reporting as an error.
const submitAttempts = 3

// retryDelay is the jittered backoff before transport retry n (1-based)
// of submission seq. The jitter is derived, not random — runs stay
// byte-reproducible — but seq spreads concurrent retries so a restarting
// node is not hit by a synchronized thundering herd.
func retryDelay(seq, n int) time.Duration {
	base := 50 * time.Millisecond << (n - 1) // 50ms, 100ms
	jitter := time.Duration(seq%7) * 10 * time.Millisecond
	return base + jitter
}

func main() {
	os.Exit(run())
}

func run() int {
	var cfg cliConfig
	flag.StringVar(&cfg.addr, "addr", "http://localhost:8080", "sgxd base URL")
	flag.StringVar(&cfg.targets, "targets", "", "comma-separated sgxd base URLs to round-robin across (cluster runs; overrides -addr)")
	flag.Float64Var(&cfg.rps, "rps", 50, "target submissions per second (open loop)")
	flag.DurationVar(&cfg.duration, "duration", 10*time.Second, "how long to drive load")
	flag.Float64Var(&cfg.mix, "mix", 0.8, "fraction of submissions that are the identical job (0..1); the rest cycle a distinct-job pool")
	// The default identical job is deliberately heavy (seconds of compute
	// on a cold store): coalescing needs submissions to overlap an
	// in-flight computation, and a millisecond job leaves no window at any
	// sane RPS. Once the result is warm, later identical submits become
	// instant store hits — so the coalescing ratio measures the cold phase.
	flag.StringVar(&cfg.identical, "identical-json", `{"experiment":"grid","workloads":["kmeans"],"policies":["sgxbounds"],"size":"XL","threads":8}`,
		"request body for the identical share of the mix")
	flag.StringVar(&cfg.tenant, "tenant", "sgxload", "tenant header value")
	flag.DurationVar(&cfg.timeout, "timeout", 30*time.Second, "per-request timeout")
	flag.StringVar(&cfg.out, "out", "", "write the JSON report here (empty = stdout only)")
	flag.BoolVar(&cfg.assertCoalescing, "assert-coalescing", false, "exit 1 unless the coalescing ratio is > 1")
	flag.BoolVar(&cfg.assertNo5xx, "assert-no-5xx", false, "exit 1 if any submission got a 5xx")
	flag.Parse()
	if cfg.rps <= 0 || cfg.mix < 0 || cfg.mix > 1 {
		fmt.Fprintln(os.Stderr, "sgxload: -rps must be > 0 and -mix within [0,1]")
		return 2
	}

	targets := []string{cfg.addr}
	if cfg.targets != "" {
		targets = targets[:0]
		for _, tgt := range strings.Split(cfg.targets, ",") {
			if tgt = strings.TrimSpace(tgt); tgt != "" {
				targets = append(targets, strings.TrimRight(tgt, "/"))
			}
		}
		if len(targets) == 0 {
			fmt.Fprintln(os.Stderr, "sgxload: -targets named no URLs")
			return 2
		}
		// The report's addr field names where load actually went.
		cfg.addr = targets[0]
	}

	client := &http.Client{Timeout: cfg.timeout}
	for _, tgt := range targets {
		if !waitReady(client, tgt, cfg.timeout) {
			fmt.Fprintf(os.Stderr, "sgxload: %s/readyz never went ready\n", tgt)
			return 2
		}
	}

	if !json.Valid([]byte(cfg.identical)) {
		fmt.Fprintln(os.Stderr, "sgxload: -identical-json is not valid JSON")
		return 2
	}
	identical := []byte(cfg.identical)

	var (
		mu       sync.Mutex
		outcomes []outcome
		wg       sync.WaitGroup
	)
	submit := func(seq, target int, body []byte) {
		defer wg.Done()
		start := time.Now()
		o := outcome{target: target}
		for attempt := 1; ; attempt++ {
			req, err := http.NewRequest(http.MethodPost, targets[target]+"/api/v1/jobs", bytes.NewReader(body))
			if err != nil {
				o.err = err
				break
			}
			req.Header.Set("Content-Type", "application/json")
			req.Header.Set("X-Sgxd-Tenant", cfg.tenant)
			resp, err := client.Do(req)
			if err != nil {
				// Transport failure (connection refused during churn, reset
				// mid-restart): retry with jittered backoff, bounded.
				o.err = err
				if attempt >= submitAttempts {
					break
				}
				o.retries++
				time.Sleep(retryDelay(seq, attempt))
				continue
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			o.err = nil
			o.status = resp.StatusCode
			o.coalesced = resp.Header.Get("X-Sgxd-Coalesced") == "true"
			break
		}
		o.latency = time.Since(start)
		mu.Lock()
		outcomes = append(outcomes, o)
		mu.Unlock()
	}

	// Open loop: one submission per tick, regardless of responses in
	// flight. The mix counter interleaves identical and distinct
	// deterministically (no RNG: runs are reproducible).
	interval := time.Duration(float64(time.Second) / cfg.rps)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	deadline := time.Now().Add(cfg.duration)
	start := time.Now()
	issued, identCredit, distinctSeq := 0, 0.0, 0
	for time.Now().Before(deadline) {
		<-ticker.C
		target := issued % len(targets) // round-robin across the cluster
		issued++
		identCredit += cfg.mix
		wg.Add(1)
		if identCredit >= 1 {
			identCredit--
			go submit(issued, target, identical)
		} else {
			go submit(issued, target, distinctBody(distinctSeq))
			distinctSeq++
		}
	}
	elapsed := time.Since(start)
	wg.Wait()

	rep := buildReport(cfg, targets, outcomes, issued, elapsed)
	blob, _ := json.MarshalIndent(rep, "", "  ")
	blob = append(blob, '\n')
	if cfg.out != "" {
		if err := os.WriteFile(cfg.out, blob, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "sgxload: write %s: %v\n", cfg.out, err)
			return 2
		}
	}
	os.Stdout.Write(blob)

	code := 0
	if cfg.assertCoalescing && rep.CoalescingRatio <= 1 {
		fmt.Fprintf(os.Stderr, "sgxload: ASSERT FAILED coalescing ratio %.3f <= 1\n", rep.CoalescingRatio)
		code = 1
	}
	if cfg.assertNo5xx && rep.Totals.Server5xx > 0 {
		fmt.Fprintf(os.Stderr, "sgxload: ASSERT FAILED %d submissions hit 5xx\n", rep.Totals.Server5xx)
		code = 1
	}
	if rep.Totals.Errors > 0 {
		fmt.Fprintf(os.Stderr, "sgxload: warning: %d transport errors\n", rep.Totals.Errors)
	}
	return code
}

func buildReport(cfg cliConfig, targets []string, outcomes []outcome, issued int, elapsed time.Duration) report {
	var rep report
	rep.Config.Addr = cfg.addr
	if len(targets) > 1 {
		rep.Config.Targets = targets
	}
	rep.Config.TargetRPS = cfg.rps
	rep.Config.DurationSec = cfg.duration.Seconds()
	rep.Config.IdenticalMix = cfg.mix
	rep.Config.IdenticalJob = cfg.identical
	rep.Totals.Issued = issued
	rep.Unix = time.Now().Unix()
	if elapsed > 0 {
		rep.AchievedRPS = float64(len(outcomes)) / elapsed.Seconds()
	}

	var lat []float64
	var sum float64
	for _, o := range outcomes {
		if o.retries > 0 && o.err == nil {
			rep.Totals.Retried++
		}
		switch {
		case o.err != nil:
			rep.Totals.Errors++
			continue
		case o.status == http.StatusCreated:
			rep.Totals.Accepted++
			if o.coalesced {
				rep.Totals.Coalesced++
			}
		case o.status == http.StatusTooManyRequests:
			rep.Totals.Rejected++
		case o.status >= 500:
			rep.Totals.Server5xx++
		}
		ms := float64(o.latency) / float64(time.Millisecond)
		lat = append(lat, ms)
		sum += ms
	}
	rep.Totals.Computed = rep.Totals.Accepted - rep.Totals.Coalesced
	if rep.Totals.Computed > 0 {
		rep.CoalescingRatio = float64(rep.Totals.Accepted) / float64(rep.Totals.Computed)
	}
	if issued > 0 {
		rep.Rate429 = float64(rep.Totals.Rejected) / float64(issued)
	}
	if len(lat) > 0 {
		sort.Float64s(lat)
		rep.LatencyMS.P50 = percentile(lat, 0.50)
		rep.LatencyMS.P99 = percentile(lat, 0.99)
		rep.LatencyMS.P999 = percentile(lat, 0.999)
		rep.LatencyMS.Max = lat[len(lat)-1]
		rep.LatencyMS.Mean = sum / float64(len(lat))
	}
	if len(targets) > 1 {
		rep.PerTarget = perTarget(targets, outcomes)
	}
	return rep
}

// perTarget splits the outcomes by round-robin target.
func perTarget(targets []string, outcomes []outcome) []targetReport {
	reps := make([]targetReport, len(targets))
	lat := make([][]float64, len(targets))
	for i, tgt := range targets {
		reps[i].Target = tgt
	}
	for _, o := range outcomes {
		i := o.target
		if i < 0 || i >= len(targets) {
			continue
		}
		reps[i].Issued++
		if o.retries > 0 && o.err == nil {
			reps[i].Retried++
		}
		switch {
		case o.err != nil:
			reps[i].Errors++
			continue
		case o.status == http.StatusCreated:
			reps[i].Accepted++
		case o.status == http.StatusTooManyRequests:
			reps[i].Rejected++
		case o.status >= 500:
			reps[i].Server5xx++
		}
		lat[i] = append(lat[i], float64(o.latency)/float64(time.Millisecond))
	}
	for i := range reps {
		if len(lat[i]) == 0 {
			continue
		}
		sort.Float64s(lat[i])
		reps[i].P50MS = percentile(lat[i], 0.50)
		reps[i].P99MS = percentile(lat[i], 0.99)
	}
	return reps
}

// percentile reads the p-quantile from a sorted sample (nearest-rank).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// waitReady polls /readyz until the daemon reports ready.
func waitReady(client *http.Client, addr string, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := client.Get(addr + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return true
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	return false
}
