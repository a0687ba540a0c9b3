package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"gatewords/internal/service"
)

// daemonRate is the daemon-mix arrival rate in requests per second. A third
// of the requests carry a new design, so the cold arrival rate is a third of
// this. It was set once, at 0.09–0.16 of the cold-path capacity of a 2-core
// x86-64 host (see README.md), and stays fixed so that runs stay comparable.
const daemonRate = 18.0

// openShare is the share of a daemon-mix run's seconds spent in the
// open-loop phase; the capacity phase takes the rest.
const openShare = 2.0 / 3

// daemonWorkers is the in-process server's worker-pool size.
const daemonWorkers = 2

// groupSize is the size of the request groups of the schedule: each group
// carries one new design, and the rest of it resubmit designs already sent.
// With a third of the requests new, the p50 of all requests lies inside the
// cache hits; with half, it lay in the gap between hits and cold jobs and
// moved with the mix.
const groupSize = 3

// daemonOptions are the job options of every daemon-mix request: wordidd's
// defaults, except that evaluate is on so that the gate compares the Table-1
// scores of every served design with the library path's.
var daemonOptions = service.JobOptions{Evaluate: true}

// maxConnections caps the client's loopback connections to the daemon.
const maxConnections = 2

// daemonDesign is a pool design with its pre-encoded POST body.
type daemonDesign struct {
	design
	body []byte
}

// arrival is one scheduled request: when it is due after the start of the
// measured phase, and which pool design it submits.
type arrival struct {
	due    time.Duration
	design int
}

// daemonPerProfile is how many new designs of each profile a run of the
// given length submits.
func daemonPerProfile(rate, seconds float64, profiles int) int {
	return max(int(math.Round(rate*seconds/groupSize/float64(profiles))), 1)
}

// daemonPool draws the designs of a daemon-mix run, perProfile per profile.
func daemonPool(runSeed int64, profiles []string, perProfile int) []daemonDesign {
	ds := designSeeds(runSeed, profiles, perProfile)
	out := make([]daemonDesign, len(ds))
	for i, d := range ds {
		out[i] = daemonDesign{design: d}
	}
	return out
}

// encodeBody pre-encodes the POST body of d (part of set-up: these are the
// bytes the daemon receives).
func encodeBody(d *daemonDesign) error {
	b, err := json.Marshal(service.SubmitRequest{Verilog: string(d.Src), Options: daemonOptions})
	d.body = b
	return err
}

// schedule draws the open-loop arrival schedule: rate×seconds requests (at
// least groupSize per pool design, so even the shortest run resubmits), in
// groups of groupSize that each hold one new design, at a seeded place in the
// group, and resubmissions of designs already sent, each drawn uniformly from
// the designs of its profile sent so far. A resubmission whose first copy is
// still running coalesces onto it; the others are cache hits. Both streams cycle over the
// profiles in shuffled rounds, so every seed offers the same mix of light and
// heavy work, and gaps are jittered around 1/rate rather than exponential,
// so the queueing a seed sees comes from its order, not from chance bursts.
// Pool designs are in designSeeds order, perProfile per profile.
func schedule(runSeed int64, profiles, perProfile int, rate, seconds float64) []arrival {
	rng := rand.New(rand.NewSource(runSeed ^ 0xa221))
	nDesigns := profiles * perProfile
	n := max(int(math.Round(rate*seconds)), groupSize*nDesigns)
	rounds := func(count int) []int { // profile indices, shuffled per round
		var out []int
		for len(out) < count {
			out = append(out, rng.Perm(profiles)...)
		}
		return out[:count]
	}
	newProfiles := rounds(nDesigns)
	resProfiles := rounds(n - nDesigns)
	isNew := make([]bool, n)
	for i := 0; i < n; i += groupSize {
		k := 0 // the first request has nothing to resubmit
		if i > 0 {
			k = rng.Intn(groupSize)
		}
		if i+k < n {
			isNew[i+k] = true
		}
	}
	out := make([]arrival, n)
	nextOf := make([]int, profiles) // designs of each profile sent so far
	sentOf := make([][]int, profiles)
	var at float64
	gaps := make([]float64, n+1)
	for i := range gaps {
		gaps[i] = 0.5 + rng.Float64()
	}
	var total float64
	for _, g := range gaps {
		total += g
	}
	ni, ri, newest := 0, 0, 0
	for i := range out {
		at += gaps[i]
		out[i].due = time.Duration(at / total * seconds * float64(time.Second))
		if isNew[i] && ni < nDesigns || ri == len(resProfiles) {
			p := newProfiles[ni]
			ni++
			d := nextOf[p]*profiles + p
			nextOf[p]++
			sentOf[p] = append(sentOf[p], d)
			out[i].design, newest = d, p
			continue
		}
		p := resProfiles[ri]
		ri++
		if len(sentOf[p]) == 0 {
			p = newest // nothing of this profile sent yet
		}
		sent := sentOf[p]
		out[i].design = sent[rng.Intn(len(sent))]
	}
	return out
}

// reqResult is the client's view of one request.
type reqResult struct {
	design  int
	ms      float64
	hit     bool // served from the cache or coalesced onto a running job
	report  []byte
	err     error
	traced  bool
	lateMS  float64
	doneAt  time.Time
	refused bool
}

// isRefusal reports whether a submit status is one of the daemon's
// overload or quarantine refusals: 429 (shed), 503 (queue full or draining)
// or 422 (quarantined). Any other failure status is a wrong answer.
func isRefusal(code int) bool {
	return code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable ||
		code == http.StatusUnprocessableEntity
}

// client talks to the daemon over loopback HTTP and awaits completion on the
// server's job handle, so no poll interval enters the latency.
type client struct {
	srv  *service.Server
	base string
	http *http.Client
}

func (c *client) submit(body []byte) (service.JobStatus, int, error) {
	resp, err := c.http.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return service.JobStatus{}, 0, err
	}
	defer resp.Body.Close()
	var st service.JobStatus
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return st, resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return st, resp.StatusCode, fmt.Errorf("submit refused: %d %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return st, resp.StatusCode, json.Unmarshal(b, &st)
}

func (c *client) fetch(id string) (service.JobStatus, error) {
	var st service.JobStatus
	resp, err := c.http.Get(c.base + "/v1/jobs/" + id)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("fetch %s: status %d", id, resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// request submits one design, waits for its job and fetches the report.
// Spans hang under a request span that starts when the request was due.
func (c *client) request(body []byte, tr *tracer, req int, due time.Time) reqResult {
	var r reqResult
	root := tr.beginAt("request", 0, req, due)
	defer tr.end(root)
	sp := tr.begin("service.submit", root, req)
	st, code, err := c.submit(body)
	tr.end(sp)
	if err != nil {
		r.err, r.refused = err, isRefusal(code)
		return r
	}
	r.hit = st.Cached || st.CoalescedWith != ""
	job, ok := c.srv.Lookup(st.ID)
	if !ok {
		r.err = fmt.Errorf("job %s unknown to the server", st.ID)
		return r
	}
	sp = tr.begin("service.done_wait", root, req)
	<-job.Done
	tr.end(sp)
	sp = tr.begin("service.fetch", root, req)
	st, err = c.fetch(st.ID)
	tr.end(sp)
	switch {
	case err != nil:
		r.err = err
	case st.Status != service.StateDone || len(st.Report) == 0:
		r.err = fmt.Errorf("job %s ended %s: %s", st.ID, st.Status, st.Error)
	default:
		r.report = st.Report
	}
	return r
}

// daemonRun is what the measured phase of daemon-mix produced.
type daemonRun struct {
	results  []reqResult
	start    time.Time
	counters service.Counters
	gc       gcWindow
	heap     *heapSampler
}

// newClient serves srv's Handler on a loopback listener and returns a
// client for it, with at most maxConnections connections, and a function
// that closes both.
func newClient(srv *service.Server) (*client, func()) {
	ts := httptest.NewServer(srv.Handler())
	tp := &http.Transport{MaxConnsPerHost: maxConnections, MaxIdleConnsPerHost: maxConnections}
	return &client{srv: srv, base: ts.URL, http: &http.Client{Transport: tp}}, func() {
		tp.CloseIdleConnections()
		ts.Close()
	}
}

// runDaemon plays the schedule against srv over loopback HTTP. Each request
// is sent when due, whatever the state of earlier ones (an open loop), and
// timed from its due time to the fetched report. A traced run traces every
// other group of requests (each group is one new design and groupSize-1
// resubmissions), so the untraced half has the same mix and measures the
// tracing overhead.
// A failed warm-up request is a mismatch.
func runDaemon(pool []daemonDesign, arr []arrival, srv *service.Server, warm [][]byte, tr *tracer, g *gate) daemonRun {
	c, closeClient := newClient(srv)
	defer closeClient()

	for _, body := range warm {
		if r := c.request(body, nil, 0, time.Now()); r.err != nil {
			g.fail("warm-up request: %v", r.err)
		}
	}

	run := daemonRun{results: make([]reqResult, len(arr))}
	run.heap = startHeapSampler()
	run.gc = startGCWindow()
	run.start = time.Now()
	var wg sync.WaitGroup
	for i, a := range arr {
		due := run.start.Add(a.due)
		time.Sleep(time.Until(due))
		late := float64(time.Since(due).Nanoseconds()) / 1e6
		var rtr *tracer
		if tr != nil && i/groupSize%2 == 1 {
			rtr = tr
		}
		wg.Add(1)
		go func(i int, a arrival) {
			defer wg.Done()
			r := c.request(pool[a.design].body, rtr, i+1, due)
			r.doneAt = time.Now()
			r.ms = float64(r.doneAt.Sub(due).Nanoseconds()) / 1e6
			r.design, r.traced, r.lateMS = a.design, rtr != nil, late
			run.results[i] = r
		}(i, a)
	}
	wg.Wait()
	run.gc.stop()
	run.heap.stop()
	run.counters, _ = srv.Metrics()
	return run
}

// capacityInFlight is how many requests the capacity phase keeps
// outstanding: two per worker, so a worker that finishes a job finds the
// next one already queued.
const capacityInFlight = 2 * daemonWorkers

// runCapacity measures the daemon's capacity after the open-loop phase: a
// fresh server, on a journal of its own and with its result cache off, serves
// the pool designs in pool order, over and over, with capacityInFlight
// requests always outstanding (a closed loop), so its workers never wait for
// work and every job runs the pipeline. It stops sending once limit has passed
// and the whole pool has been served once, and returns the results and the
// phase's wall time.
func runCapacity(pool []daemonDesign, journal string, limit time.Duration) ([]reqResult, time.Duration, error) {
	srv, err := service.New(service.Config{Workers: daemonWorkers, JournalPath: journal, CacheEntries: -1})
	if err != nil {
		return nil, 0, err
	}
	defer srv.Close()
	c, closeClient := newClient(srv)
	defer closeClient()
	var (
		mu      sync.Mutex
		next    int
		results []reqResult
		wg      sync.WaitGroup
	)
	take := func(start time.Time) (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next >= len(pool) && time.Since(start) >= limit {
			return 0, false
		}
		next++
		return (next - 1) % len(pool), true
	}
	start := time.Now()
	for k := 0; k < min(capacityInFlight, len(pool)); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := take(start)
				if !ok {
					return
				}
				r := c.request(pool[i].body, nil, 0, time.Now())
				r.design, r.doneAt = i, time.Now()
				mu.Lock()
				results = append(results, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return results, time.Since(start), nil
}

// journalReplay times service.New on the journal a finished run left
// behind: the daemon's restart cost for that history.
func journalReplay(path string, vals map[string]float64, accepted int64) error {
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	t0 := time.Now()
	srv, err := service.New(service.Config{Workers: daemonWorkers, JournalPath: path})
	took := time.Since(t0)
	if err != nil {
		return fmt.Errorf("replaying journal: %w", err)
	}
	c, _ := srv.Metrics()
	srv.Close()
	vals["journal.replay_ms"] = float64(took.Nanoseconds()) / 1e6
	vals["journal.replayed_jobs"] = float64(c.JournalReplays)
	vals["journal.bytes_per_job"] = float64(fi.Size()) / float64(accepted)
	return nil
}

// serviceLayers fills the service metrics from the traced requests' spans
// and the server's own counters.
func serviceLayers(tr *tracer, run daemonRun, vals map[string]float64) {
	spans := tr.closed()
	c := run.counters
	vals["service.submit_ms"] = median(durations(spans, "service.submit"))
	vals["service.done_wait_ms"] = median(durations(spans, "service.done_wait"))
	vals["service.fetch_ms"] = median(durations(spans, "service.fetch"))
	vals["service.cache_hit_ratio"] = 0
	if lookups := c.CacheHits + c.CacheMisses; lookups > 0 {
		vals["service.cache_hit_ratio"] = float64(c.CacheHits) / float64(lookups)
	}
	vals["service.coalesced"] = float64(c.JobsCoalesced)
	vals["service.pipeline_runs"] = float64(c.PipelineRuns)
	vals["service.jobs_shed"] = float64(c.JobsShed)
	vals["service.jobs_rejected"] = float64(c.JobsRejected)
	vals["service.job_latency_ewma_ms"] = c.JobLatencyEWMAMS
}

// checkDaemon applies the correctness gate to every response: each report
// must pass check, every report of one design must equal the first except
// for runtime_seconds (so a cache hit or coalesced job equals its primary,
// and the capacity phase's cold run equals the open-loop phase's), and the
// first must agree with the library path's report of the same source on the
// word list and the Table-1 scores. A refusal counts as a failed operation;
// any other failed request is a mismatch. It returns the library path's
// reports of the designs served and, in a traced run, their traces.
func checkDaemon(pool []daemonDesign, results []reqResult, g *gate, tr *tracer) (failed int, lib []checked, traces []*opTrace) {
	served := make([]bool, len(pool))
	for _, r := range results {
		if r.refused {
			// Overload refusals count as failed operations, not as wrong
			// output.
			failed++
			continue
		}
		if r.err != nil {
			g.fail("request for %s: %v", pool[r.design].Name, r.err)
			failed++
			continue
		}
		c, cerr := check(r.report)
		if cerr != nil {
			g.fail("%s: %v", pool[r.design].Name, cerr)
			failed++
			continue
		}
		if !g.same(pool[r.design].Name, c) {
			failed++
			continue
		}
		served[r.design] = true
	}
	for i := range pool {
		if !served[i] {
			continue
		}
		d := &pool[i]
		rep, _, ot, err := libraryOp(&d.design, daemonOptions.VerifyReduction, tr, -1000-i)
		if err != nil {
			g.fail("library reference: %v", err)
			continue
		}
		ref, err := check(rep)
		if err != nil {
			g.fail("library reference %s: %v", d.Name, err)
			continue
		}
		got := g.first[d.Name]
		if got.Digest != ref.Digest {
			g.fail("%s: daemon and library word lists differ", d.Name)
		}
		if !sameScores(got.Eval, ref.Eval) {
			g.fail("%s: daemon and library Table-1 scores differ", d.Name)
		}
		lib = append(lib, ref)
		if ot != nil {
			traces = append(traces, ot)
		}
	}
	return failed, lib, traces
}

// lateP99 is the 99th percentile of how late the generator sent requests.
func lateP99(results []reqResult) float64 {
	xs := make([]float64, 0, len(results))
	for _, r := range results {
		xs = append(xs, r.lateMS)
	}
	return percentile(xs, 99)
}
