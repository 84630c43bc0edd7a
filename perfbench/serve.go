package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"sgxbounds/internal/bench"
	"sgxbounds/internal/serve"
	"sgxbounds/internal/serve/sched"
)

const (
	setupBoots   = 9                     // fleet boots per run besides the bursts'; setup_s is the median of every boot
	pollInterval = 4 * time.Millisecond  // result poll period for unfinished jobs
	pollBudget   = 500                   // most result polls per second, all jobs together
	burstPoll    = 20 * time.Millisecond // result poll period of a burst's one poller per node
	minBursts    = 5                     // fewest bursts per run
	drainCap     = 60 * time.Second      // longest wait for a step's or a burst's requests to finish
	readyCap     = 30 * time.Second      // longest wait for a fleet to become ready
	connsPerNode = 2                     // load generator connections per node
	httpTimeout  = 60 * time.Second      // per request
	stopCap      = 15 * time.Second      // longest graceful shutdown before SIGKILL
	readyPoll    = 2 * time.Millisecond  // readiness poll period; each poll costs the node CPU time, which setup_s counts
	spinAhead    = time.Millisecond      // the load generator spins this long before each arrival
)

// node is one sgxd process.
type node struct {
	id, url string
	cmd     *exec.Cmd
	log     *os.File
}

// nodeID names the i-th node of a fleet.
func nodeID(i int) string { return fmt.Sprintf("n%d", i+1) }

// fleet is the set of sgxd processes of one run.
type fleet struct {
	nodes   []*node
	stopped bool
}

// freePorts reserves n distinct loopback ports by binding and releasing them.
func freePorts(n int) ([]int, error) {
	var ports []int
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ls = append(ls, l)
		ports = append(ports, l.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

// bootFleet starts n fresh sgxd nodes (each -jobs 1 -parallel 1, static
// membership when n > 1) and returns once every node is ready, with the
// CPU time the nodes used to get there.
func bootFleet(c config, n int, tag string) (*fleet, time.Duration, error) {
	ports, err := freePorts(n)
	if err != nil {
		return nil, 0, err
	}
	var peers []string
	for i, p := range ports {
		peers = append(peers, fmt.Sprintf("%s=http://127.0.0.1:%d", nodeID(i), p))
	}
	f := &fleet{}
	start := time.Now()
	for i, p := range ports {
		id := nodeID(i)
		dir := c.path("serve", tag, id)
		if err := os.RemoveAll(dir); err != nil {
			f.stop()
			return nil, 0, err
		}
		// The journal is off: its fsync per submit would measure how busy
		// the host's shared disk is, not sgxd. The backlog is deep enough
		// that overload shows as queueing, never as 429s.
		args := []string{"-addr", fmt.Sprintf("127.0.0.1:%d", p), "-store", filepath.Join(dir, "store"),
			"-journal", "off", "-jobs", "1", "-parallel", "1",
			"-backlog", "4096", "-drain-timeout", "5s"}
		if n > 1 {
			args = append(args, "-node-id", id, "-peers", strings.Join(peers, ","))
		}
		logf, err := os.Create(dir + ".log")
		if err != nil {
			f.stop()
			return nil, 0, err
		}
		cmd := exec.Command(filepath.Join(c.build, "bin", "sgxd"), args...)
		cmd.Stdout, cmd.Stderr = logf, logf
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			logf.Close()
			f.stop()
			return nil, 0, fmt.Errorf("start sgxd: %w", err)
		}
		f.nodes = append(f.nodes, &node{id: id, url: fmt.Sprintf("http://127.0.0.1:%d", p), cmd: cmd, log: logf})
	}
	hc := &http.Client{Timeout: time.Second}
	deadline := start.Add(readyCap)
	for _, nd := range f.nodes {
		for {
			resp, err := hc.Get(nd.url + "/readyz")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				f.stop()
				return nil, 0, fmt.Errorf("sgxd %s not ready after %v (log: %s)", nd.id, readyCap, nd.log.Name())
			}
			time.Sleep(readyPoll)
		}
	}
	hc.CloseIdleConnections()
	cpu, err := f.cpu()
	if err != nil {
		f.stop()
		return nil, 0, err
	}
	return f, cpu, nil
}

// stop shuts every node down gracefully (SIGKILL after stopCap).
func (f *fleet) stop() {
	if f.stopped {
		return
	}
	f.stopped = true
	for _, nd := range f.nodes {
		nd.cmd.Process.Signal(syscall.SIGTERM)
	}
	for _, nd := range f.nodes {
		done := make(chan struct{})
		go func() {
			nd.cmd.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(stopCap):
			nd.cmd.Process.Kill()
			<-done
		}
		nd.log.Close()
	}
}

// cpu returns the CPU time the nodes have used so far, summed.
func (f *fleet) cpu() (time.Duration, error) {
	var sum time.Duration
	for _, nd := range f.nodes {
		t, err := pidCPU(nd.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		sum += t
	}
	return sum, nil
}

// peakRSS returns the nodes' peak resident memory so far (VmHWM), summed,
// in MiB.
func (f *fleet) peakRSS() (float64, error) {
	var sum float64
	for _, nd := range f.nodes {
		raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", nd.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		_, rest, _ := strings.Cut(string(raw), "\nVmHWM:")
		var kb float64
		if _, err := fmt.Sscan(rest, &kb); err != nil {
			return 0, fmt.Errorf("sgxd %s: no VmHWM in /proc status: %v", nd.id, err)
		}
		sum += kb / 1024
	}
	return sum, nil
}

// scrape reads every node's /metrics counters, summed over the fleet.
func (f *fleet) scrape(hc *http.Client) (map[string]float64, error) {
	sum := make(map[string]float64)
	for _, nd := range f.nodes {
		resp, err := hc.Get(nd.url + "/metrics")
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "#") || strings.ContainsRune(line, '{') {
				continue
			}
			name, val, ok := strings.Cut(line, " ")
			if !ok {
				continue
			}
			if v, err := strconv.ParseFloat(val, 64); err == nil {
				sum[name] += v
			}
		}
		resp.Body.Close()
		if err := sc.Err(); err != nil {
			return nil, err
		}
	}
	return sum, nil
}

// record is one submit and what became of it.
type record struct {
	id    int // request ID shared by the request's spans
	step  int // prewarmStep, nominalStep or burstStep
	kind  kind
	job   bench.Job
	node  int
	due   time.Time
	sent  time.Time // the generator's lateness is sent - due
	admit time.Time // submit response
	done  time.Time // result bytes received
	// Filled from responses.
	jobID, execNode string
	coalesced       bool
	submitSpan      time.Duration
	getSpan         time.Duration // the final, successful result fetch
	elapsedMS       int64         // status elapsed_ms (traced)
	cellsRun        int           // status cells.runs (traced)
	body            [32]byte
	err             string
}

func (r *record) ok() bool { return r.err == "" }

// span is one HTTP exchange of the load generator, kept in memory and
// written out when the run ends.
type span struct {
	Req     int    `json:"req"`
	Kind    string `json:"kind"`
	Step    int    `json:"step"` // -1 = prewarm, 0 = nominal
	Op      string `json:"op"`
	Node    string `json:"node"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
	Code    int    `json:"code"`
}

// loadgen is the open-loop generator: one process, at most connsPerNode
// connections to each node.
type loadgen struct {
	hc       *http.Client
	fleet    *fleet
	trace    bool
	t0       time.Time
	mu       sync.Mutex
	spans    []span
	inflight atomic.Int64 // cold jobs submitted and not yet finished
	backlog  atomic.Int64 // the largest inflight seen
}

func newLoadgen(f *fleet, trace bool) *loadgen {
	tr := &http.Transport{MaxConnsPerHost: connsPerNode, MaxIdleConnsPerHost: connsPerNode, DisableCompression: true}
	return &loadgen{hc: &http.Client{Transport: tr, Timeout: httpTimeout}, fleet: f, trace: trace, t0: time.Now()}
}

// do performs one exchange and reads the whole body.
func (g *loadgen) do(rec *record, op, method, url string, body []byte) (int, http.Header, []byte, error) {
	start := time.Now()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := g.hc.Do(req)
	var code int
	var hdr http.Header
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		code, hdr = resp.StatusCode, resp.Header
	}
	if g.trace {
		end := time.Now()
		g.mu.Lock()
		g.spans = append(g.spans, span{Req: rec.id, Kind: rec.kind.String(), Step: rec.step, Op: op, Node: g.fleet.nodes[rec.node].id,
			StartUS: start.Sub(g.t0).Microseconds(), EndUS: end.Sub(g.t0).Microseconds(), Code: code})
		g.mu.Unlock()
	}
	return code, hdr, data, err
}

// submit sends rec's job to its node and reads the admission.
func (g *loadgen) submit(rec *record) error {
	body, err := json.Marshal(rec.job)
	if err != nil {
		return err
	}
	rec.sent = time.Now()
	code, hdr, data, err := g.do(rec, "submit", http.MethodPost, g.fleet.nodes[rec.node].url+"/api/v1/jobs", body)
	rec.admit = time.Now()
	rec.submitSpan = rec.admit.Sub(rec.sent)
	if err != nil || code != http.StatusCreated {
		return fmt.Errorf("submit: HTTP %d %v %s", code, err, bytes.TrimSpace(data))
	}
	var st sched.JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	rec.jobID, rec.execNode = st.ID, st.Node
	rec.coalesced = hdr.Get(serve.CoalescedHeader) == "true"
	return nil
}

// await polls rec's result until it is ready, waiting period() between
// polls, and keeps the digest of its bytes.
func (g *loadgen) await(rec *record, period func() time.Duration) error {
	url := g.fleet.nodes[rec.node].url + "/api/v1/jobs/" + rec.jobID + "/result"
	for {
		t := time.Now()
		code, _, data, err := g.do(rec, "result", http.MethodGet, url, nil)
		if err == nil && code == http.StatusOK {
			rec.done = time.Now()
			rec.getSpan = rec.done.Sub(t)
			rec.body = sha256.Sum256(data)
			return nil
		}
		if err != nil || code != http.StatusConflict {
			return fmt.Errorf("result: HTTP %d %v %s", code, err, bytes.TrimSpace(data))
		}
		time.Sleep(period())
	}
}

// run performs one request of the nominal step: submit, poll the result
// until it is ready, and (traced) read the job's status. It closes
// admitted once the submit has been answered or has failed.
func (g *loadgen) run(rec *record, admitted chan<- struct{}) {
	if rec.kind != warm {
		if n := g.inflight.Add(1); n > g.backlog.Load() {
			g.backlog.Store(n) // approximate max; races only lose ties
		}
		defer g.inflight.Add(-1)
	}
	err := g.submit(rec)
	close(admitted)
	if err == nil {
		// Stretch the period with the backlog, so that polling an
		// overloaded node costs it at most pollBudget requests a second.
		err = g.await(rec, func() time.Duration {
			return max(pollInterval, time.Duration(g.inflight.Load())*time.Second/pollBudget)
		})
	}
	if err == nil && g.trace {
		var st sched.JobStatus
		code, _, data, derr := g.do(rec, "status", http.MethodGet, g.fleet.nodes[rec.node].url+"/api/v1/jobs/"+rec.jobID, nil)
		if derr != nil || code != http.StatusOK || json.Unmarshal(data, &st) != nil {
			err = fmt.Errorf("status: HTTP %d %v", code, derr)
		} else {
			rec.elapsedMS, rec.cellsRun, rec.execNode = st.ElapsedMS, st.Cells.Runs, st.Node
		}
	}
	if err != nil {
		rec.err = err.Error()
	}
}

// stepStats is how the nominal step went.
type stepStats struct {
	step  step
	recs  []*record
	drain time.Duration // step end to its last request's result
}

// latencies returns due-to-result times in ms of the records of class k
// (cold includes dup bursts, leaders and followers alike).
func latencies(recs []*record, k kind) dist {
	var d dist
	for _, r := range recs {
		if r.ok() && (r.kind == k || (k == cold && r.kind == dup)) {
			d = append(d, ms(r.done.Sub(r.due)))
		}
	}
	return d
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// waitUntil returns at t. It sleeps to within spinAhead of t, then spins,
// because a sleeping goroutine wakes up to a millisecond late on a busy
// 2-core host and that lateness would land in every latency.
func waitUntil(t time.Time) {
	time.Sleep(time.Until(t) - spinAhead)
	for time.Now().Before(t) {
	}
}

// waitTimeout waits for wg up to d and reports whether it finished.
func waitTimeout(wg *sync.WaitGroup, d time.Duration) bool {
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(d):
		return false
	}
}

// Steps of a record.
const (
	prewarmStep = -1
	nominalStep = 0
	burstStep   = 1
)

// pass is one run of the nominal step on a fresh fleet, after its
// prewarm.
type pass struct {
	prewarm time.Duration
	recs    []*record // every submit, prewarm included
	nominal stepStats
	before  map[string]float64
	after   map[string]float64
	spans   []span
	backlog int64
	steal   float64 // host steal % while the nominal step ran
}

// runPass boots a fleet, prewarms it and offers it the nominal step.
func runPass(c config, nodes int, sch schedule, trace bool) (*pass, error) {
	p := &pass{}
	f, _, err := bootFleet(c, nodes, "nominal")
	if err != nil {
		return nil, err
	}
	defer f.stop()
	g := newLoadgen(f, trace)
	newRec := func(step int, a arrival, due time.Time) *record {
		r := &record{id: len(p.recs), step: step, kind: a.Kind, job: a.Job, node: len(p.recs) % nodes, due: due}
		p.recs = append(p.recs, r)
		return r
	}

	// Prewarm the warm keys, one at a time, before timing.
	t := time.Now()
	for _, j := range sch.Warm {
		r := newRec(prewarmStep, arrival{Kind: cold, Job: j}, time.Now())
		g.run(r, make(chan struct{}))
	}
	p.prewarm = time.Since(t)
	if p.before, err = f.scrape(g.hc); err != nil {
		return nil, err
	}

	cpu0 := readCPU()
	var wg sync.WaitGroup
	st := sch.Nominal
	p.nominal.step = st
	start := time.Now()
	for _, a := range st.Arrivals {
		due := start.Add(a.At)
		waitUntil(due)
		burst := make([]*record, a.Copies+1)
		for k := range burst {
			burst[k] = newRec(nominalStep, a, due)
			p.nominal.recs = append(p.nominal.recs, burst[k])
		}
		wg.Add(len(burst))
		go func() {
			// A dup burst's copies follow one another: each is due when
			// the one before it was admitted.
			for k, r := range burst {
				if k > 0 {
					r.due = burst[k-1].admit
				}
				admitted := make(chan struct{})
				go func() {
					defer wg.Done()
					g.run(r, admitted)
				}()
				<-admitted
			}
		}()
	}
	end := start.Add(st.Dur)
	time.Sleep(time.Until(end))
	if !waitTimeout(&wg, drainCap) {
		return nil, fmt.Errorf("nominal step: requests still open %v after its end", drainCap)
	}
	p.nominal.drain = time.Since(end)
	p.steal = stealPct(cpu0, readCPU())
	if p.after, err = f.scrape(g.hc); err != nil {
		return nil, err
	}
	f.stop()
	p.backlog = g.backlog.Load()
	p.spans = g.spans
	return p, nil
}

// burst is what one burst measured.
type burst struct {
	setup time.Duration // the fleet's CPU time to boot
	cpu   time.Duration // the fleet's CPU time, first submit to last result
	wall  time.Duration // first submit to last result
	rssMB float64       // the fleet's peak resident memory by its end
}

// runBursts boots fresh fleets, one after another, and offers each the
// schedule's burst keys at once, until the run's seconds are used and
// at least minBursts are done. It returns every burst's records.
func runBursts(c config, nodes int, sch schedule) ([]burst, []*record, error) {
	var bursts []burst
	var recs []*record
	deadline := time.Now().Add(time.Duration(c.seconds * float64(time.Second)))
	for longest := time.Duration(0); len(bursts) < minBursts || time.Now().Add(longest).Before(deadline); {
		t := time.Now()
		b, rs, err := runBurst(c, nodes, sch.Burst, len(recs))
		if err != nil {
			return nil, nil, err
		}
		longest = max(longest, time.Since(t))
		bursts = append(bursts, b)
		recs = append(recs, rs...)
	}
	return bursts, recs, nil
}

// runBurst boots a fresh fleet and offers it keys all at once, spread
// round-robin over its nodes: one goroutine per node submits the node's
// share, then polls their results in submission order. Its records take
// IDs from id0.
func runBurst(c config, nodes int, keys []bench.Job, id0 int) (burst, []*record, error) {
	var b burst
	f, setup, err := bootFleet(c, nodes, "burst")
	if err != nil {
		return b, nil, err
	}
	defer f.stop()
	b.setup = setup
	g := newLoadgen(f, false)
	cpu0, err := f.cpu()
	if err != nil {
		return b, nil, err
	}
	start := time.Now()
	recs := make([]*record, len(keys))
	share := make([][]*record, nodes)
	for i, j := range keys {
		recs[i] = &record{id: id0 + i, step: burstStep, kind: cold, job: j, node: i % nodes, due: start}
		share[i%nodes] = append(share[i%nodes], recs[i])
	}
	var wg sync.WaitGroup
	for _, mine := range share {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, r := range mine {
				if err := g.submit(r); err != nil {
					r.err = err.Error()
				}
			}
			for _, r := range mine {
				if r.ok() {
					if err := g.await(r, func() time.Duration { return burstPoll }); err != nil {
						r.err = err.Error()
					}
				}
			}
		}()
	}
	if !waitTimeout(&wg, drainCap) {
		return b, nil, fmt.Errorf("burst: requests still open after %v", drainCap)
	}
	b.wall = time.Since(start)
	cpu1, err := f.cpu()
	if err != nil {
		return b, nil, err
	}
	b.cpu = cpu1 - cpu0
	if b.rssMB, err = f.peakRSS(); err != nil {
		return b, nil, err
	}
	return b, recs, nil
}

// verify checks every served body against bench.RunJob's output for the
// same job and marks mismatching records failed. Expected digests are
// cached per build under the state directory, so a key is recomputed once
// per build.
func verify(c config, recs []*record) error {
	id, err := buildID()
	if err != nil {
		return err
	}
	dir := filepath.Dir(c.path("state", "expected-"+id, "x"))
	eng := bench.NewEngine(1)
	want := make(map[string][32]byte)
	for _, r := range recs {
		if !r.ok() {
			continue
		}
		key := r.job.Digest()
		sum, ok := want[key]
		if !ok {
			file := filepath.Join(dir, key)
			if raw, err := os.ReadFile(file); err == nil && hex.DecodedLen(len(raw)) == len(sum) {
				hex.Decode(sum[:], raw)
			} else {
				var out bytes.Buffer
				if err := bench.RunJob(eng, r.job, &out, nil); err != nil {
					return fmt.Errorf("reference run of %s: %w", key[:12], err)
				}
				sum = sha256.Sum256(out.Bytes())
				if err := os.WriteFile(file, []byte(hex.EncodeToString(sum[:])), 0o644); err != nil {
					return err
				}
			}
			want[key] = sum
		}
		if r.body != sum {
			r.err = "served bytes differ from bench.RunJob"
		}
	}
	return nil
}

// runServe measures one serve workload. Untraced: setupBoots boots, then
// bursts for the run's seconds, for setup_s, result_cpu_ms and
// peak_rss_mb. Traced: the nominal step once untraced and once traced.
func runServe(c config, nodes int) (result, error) {
	var res result
	sch := newSchedule(c.seed, c.seconds)
	var recs []*record
	count := func() {
		for _, r := range recs {
			res.Attempted++
			if !r.ok() {
				res.Failed++
				if res.Failed <= 5 {
					fmt.Fprintf(os.Stderr, "perfbench: request %d (%s %s): %s\n", r.id, r.kind, r.job.Digest()[:12], r.err)
				}
			}
		}
		res.Correct = res.Failed == 0
	}
	if !c.trace {
		var setups dist
		for i := 0; i < setupBoots; i++ {
			f, setup, err := bootFleet(c, nodes, fmt.Sprintf("boot%d", i))
			if err != nil {
				return res, err
			}
			f.stop()
			setups = append(setups, setup.Seconds())
		}
		bursts, rs, err := runBursts(c, nodes, sch)
		if err != nil {
			return res, err
		}
		recs = rs
		if err := verify(c, recs); err != nil {
			return res, err
		}
		count()
		// A burst's CPU time per job is the fleet's cost of a result:
		// compute, admission, placement, store and the HTTP around them.
		// Each burst sums 26 jobs, so the median of the bursts is steadier
		// from run to run than their best, one lucky burst of many.
		var cpu, wall, rss dist
		for _, b := range bursts {
			setups = append(setups, b.setup.Seconds())
			cpu = append(cpu, ms(b.cpu)/float64(len(sch.Burst)))
			wall = append(wall, b.wall.Seconds())
			rss = append(rss, b.rssMB)
		}
		fmt.Printf("bursts: %d of %d jobs; fleet CPU ms per job %.2f best, %.2f p25, %.2f median; first submit to last result %.3f s best, %.3f s median; fleet peak RSS %.1f MB median; setup p50 %.4f s over %d boots\n",
			len(bursts), len(sch.Burst), cpu.percentile(0), cpu.percentile(25), cpu.median(), wall.percentile(0), wall.median(), rss.median(), setups.median(), len(setups))
		res.set("setup_s", setups.median(), "s")
		res.set("result_cpu_ms", cpu.median(), "ms")
		res.set("peak_rss_mb", rss.median(), "MB")
		return res, nil
	}

	base, err := runPass(c, nodes, sch, false)
	if err != nil {
		return res, err
	}
	traced, err := runPass(c, nodes, sch, true)
	if err != nil {
		return res, err
	}
	recs = append(base.recs, traced.recs...)
	if err := verify(c, recs); err != nil {
		return res, err
	}
	count()
	nom := nominalLatencies(base)
	fmt.Printf("nominal step: %.0f req/s, %d submits, drain %.0f ms; %s; %s; %s; host steal %.1f%%\n",
		sch.Nominal.RPS, len(base.nominal.recs), ms(base.nominal.drain), nom.submit.tailNote("submit_tail_ms"),
		nom.warm.tailNote("warm_tail_ms"), nom.cold.tailNote("cold_tail_ms"), base.steal)
	if err := writeSpans(c, traced.spans); err != nil {
		return res, err
	}
	serveLayerMetrics(&res, traced, base)
	res.set("trace.overhead_pct", (nominalLatencies(traced).submit.median()/nom.submit.median()-1)*100, "%")
	res.set("host.steal_pct", traced.steal, "%")
	if err := servedCellMetrics(c, &res, traced); err != nil {
		return res, err
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// servedCellMetrics sets the simulator's per-layer metrics of a serve run.
// sgxd has no profiler, so they come from running the cells the traced
// pass computed, in the order it submitted them, in a simulating process
// of the benchmark's own: once under the CPU profiler, once counting EPC
// evictions.
func servedCellMetrics(c config, res *result, p *pass) error {
	var jobs []bench.Job
	seen := map[string]bool{}
	for _, r := range p.recs {
		if key := r.job.Digest(); r.step == nominalStep && r.kind != warm && !seen[key] {
			seen[key] = true
			jobs = append(jobs, r.job)
		}
	}
	list, err := json.Marshal(jobs)
	if err != nil {
		return err
	}
	cells := c.path("sim", "served-cells.json")
	if err := os.WriteFile(cells, list, 0o644); err != nil {
		return err
	}
	profile := c.path("sim", "served.pprof")
	run, err := startChild(c, "", "served", "-cells", cells, "-cpuprofile", profile)
	if err != nil {
		return err
	}
	counted, err := startChild(c, "", "served-evictions", "-cells", cells, "-evictions")
	if err != nil {
		return err
	}
	if counted.rep.Counts.Fingerprint != run.rep.Counts.Fingerprint {
		fmt.Fprintln(os.Stderr, "perfbench: correctness: served cells' simulated counts differ between two runs")
		res.Attempted++
		res.Failed++
	}
	return simLayerMetrics(res, profile, len(run.rep.Passes), run, counted.rep.Counts.Evictions)
}

// nominalStats are the nominal step's latencies in ms, from due time.
type nominalStats struct{ submit, warm, cold dist }

func nominalLatencies(p *pass) nominalStats {
	var n nominalStats
	recs := p.nominal.recs
	for _, r := range recs {
		if r.ok() {
			n.submit = append(n.submit, ms(r.admit.Sub(r.due)))
		}
	}
	n.warm, n.cold = latencies(recs, warm), latencies(recs, cold)
	return n
}

// noService sets every serving per-layer metric to 0, as a sim run, which
// sends no request, measures them.
func noService(res *result) { serveLayerMetrics(res, &pass{}, &pass{}) }

// writeSpans writes the traced pass's spans as JSON lines.
func writeSpans(c config, spans []span) error {
	f, err := os.Create(c.path("trace", fmt.Sprintf("%s-seed%d.spans.jsonl", c.workload, c.seed)))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// serveLayerMetrics sets the serving per-layer metrics of a traced pass p.
// The nominal step's latencies come from base, the untraced pass of the
// same schedule: they are ungated, because on a 2-core host the cold ones
// follow how fast fresh cell memory faults in and the tails how a few
// milliseconds of work get scheduled, so they spread too far from run to
// run. An empty pass sets every metric to 0.
func serveLayerMetrics(res *result, p, base *pass) {
	nom := nominalLatencies(base)
	res.set("nominal.submit_p50_ms", nom.submit.median(), "ms")
	res.set("nominal.submit_tail_ms", nom.submit.tailValue(), "ms")
	res.set("nominal.warm_p50_ms", nom.warm.median(), "ms")
	res.set("nominal.warm_tail_ms", nom.warm.tailValue(), "ms")
	res.set("nominal.cold_p50_ms", nom.cold.median(), "ms")
	res.set("nominal.cold_tail_ms", nom.cold.tailValue(), "ms")

	delta := func(name string) float64 { return p.after["sgxd_"+name+"_total"] - p.before["sgxd_"+name+"_total"] }
	var lag dist
	shares := map[kind]float64{}
	arrivals := 0.0
	for _, r := range p.nominal.recs {
		lag = append(lag, ms(r.sent.Sub(r.due)))
	}
	for _, a := range p.nominal.step.Arrivals {
		shares[a.Kind]++
		arrivals++
	}
	res.set("loadgen.lag_tail_ms", lag.tailValue(), "ms")
	arrivals = max(1, arrivals)
	res.set("loadgen.share_warm", shares[warm]/arrivals, "ratio")
	res.set("loadgen.share_cold", shares[cold]/arrivals, "ratio")
	res.set("loadgen.share_dup", shares[dup]/arrivals, "ratio")
	res.set("loadgen.prewarm_s", p.prewarm.Seconds(), "s")

	var submitSpan, getSpan, compute, queue dist
	var hopFar, hopNear dist
	seenJob := map[string]bool{}
	coldKeys := map[string]bool{}
	for _, r := range p.nominal.recs {
		if r.kind != warm {
			coldKeys[r.job.Digest()] = true
		}
	}
	for _, r := range p.nominal.recs {
		if !r.ok() {
			continue
		}
		submitSpan = append(submitSpan, ms(r.submitSpan))
		getSpan = append(getSpan, ms(r.getSpan))
		if r.execNode != "" && r.execNode != nodeID(r.node) {
			hopFar = append(hopFar, ms(r.submitSpan))
		} else if r.execNode != "" {
			hopNear = append(hopNear, ms(r.submitSpan))
		}
		job := r.execNode + "/" + r.jobID
		if r.cellsRun > 0 && !seenJob[job] {
			seenJob[job] = true
			compute = append(compute, float64(r.elapsedMS))
			if !r.coalesced {
				// Client-side estimate: admission to result bytes minus
				// compute, so it includes up to one poll period.
				queue = append(queue, max(0, ms(r.done.Sub(r.admit))-float64(r.elapsedMS)))
			}
		}
	}
	res.set("frontdoor.submit_ms_p50", submitSpan.median(), "ms")
	res.set("frontdoor.submit_ms_tail", submitSpan.tailValue(), "ms")
	res.set("frontdoor.coalesced", delta("coalesced"), "count")
	if owned := delta("admitted") - delta("coalesced"); owned > 0 {
		res.set("frontdoor.coalescing_ratio", delta("admitted")/owned, "ratio")
	} else {
		res.set("frontdoor.coalescing_ratio", 0, "ratio")
	}
	res.set("frontdoor.rejected", delta("rejected"), "count")

	res.set("sched.compute_ms_p50", compute.median(), "ms")
	res.set("sched.compute_ms_tail", compute.tailValue(), "ms")
	res.set("sched.queue_wait_ms_p50", queue.median(), "ms")
	res.set("sched.queue_wait_ms_tail", queue.tailValue(), "ms")
	res.set("sched.backlog_max", float64(p.backlog), "count")
	res.set("sched.completed", delta("jobs_completed"), "count")
	res.set("sched.failed", delta("jobs_failed")+delta("jobs_quarantined"), "count")
	res.set("sched.retried", delta("jobs_retried"), "count")
	cells, keys := delta("cells_run"), float64(max(1, len(coldKeys)))
	res.set("sched.recompute_ratio", cells/keys, "ratio")

	res.set("resultier.get_ms_p50", getSpan.median(), "ms")
	res.set("resultier.get_ms_tail", getSpan.tailValue(), "ms")
	hits, misses := delta("cache_hits"), delta("cache_misses")
	res.set("resultier.hits", hits, "count")
	res.set("resultier.misses", misses, "count")
	res.set("resultier.hit_ratio", hits/max(1, hits+misses), "ratio")
	res.set("store.hits", delta("store_hits"), "count")
	res.set("store.misses", delta("store_misses"), "count")
	res.set("store.put_retries", delta("store_put_retries"), "count")

	res.set("cluster.forwarded", delta("cluster_forwarded"), "count")
	res.set("cluster.forward_fallback", delta("cluster_forward_fallback"), "count")
	hop := 0.0 // no submit was forwarded
	if len(hopFar) > 0 && len(hopNear) > 0 {
		hop = hopFar.median() - hopNear.median()
	}
	res.set("cluster.forward_hop_ms", hop, "ms")
	res.set("cluster.peer_fetches", delta("peer_fetches"), "count")
	res.set("cluster.hedged_fetches", delta("cluster_hedged_fetches"), "count")
	res.set("cluster.steals", delta("steals"), "count")
	res.set("cluster.rereplicated", delta("rereplicated"), "count")
	res.set("cluster.recompute_ratio", (cells-float64(len(coldKeys)))/keys, "ratio")
	if len(p.spans) > 0 {
		fmt.Printf("traced nominal step: %s; %s; %d spans\n", compute.tailNote("sched.compute_ms_tail"),
			queue.tailNote("sched.queue_wait_ms_tail"), len(p.spans))
	}
}
