// Command perfbench is the repository benchmark: it turns a workload seed
// into Verilog bytes, pushes them through gatewords from bytes in to report
// bytes out — the batch library path and the wordidd daemon over loopback
// HTTP — checks every report, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics) as the last line of its output.
//
//	go build -o perfbench . && ./perfbench --workload itc-large --seed 1 --seconds 40 --trace 0
//
// See README.md for the workloads, the metrics and how they relate.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"gatewords/internal/report"
	"gatewords/internal/service"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are one run's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string // build/run directory for inputs, journals and traces
	small    bool   // smallest pools, for the package's smoke tests
}

// run parses the command line and runs the benchmark.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: itc-large or daemon-mix")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 for the traced run (per-layer metrics), 0 for end-to-end metrics")
	fs.StringVar(&o.out, "out", ".bench_build", "directory for generated inputs, journals and traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	o.trace = trace == 1
	return execute(o, stdout, stderr)
}

// execute runs the benchmark and prints its result. Exit codes: 0 all
// outputs correct, 1 a correctness check failed (the mismatches and the
// result line are still printed), 2 the run could not be made: bad
// arguments, or a set-up or I/O error (nothing printed as a result).
func execute(o options, stdout, stderr io.Writer) int {
	res, err := measure(o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

// measure runs one workload and returns its result line; log receives the
// human-readable detail printed before it, ending with every mismatch the
// gate found. A failed check makes the result incorrect, not an error: the
// metrics it left unmeasured are left out of the result, and the gate
// records that they are missing.
func measure(o options, log io.Writer) (result, error) {
	w, err := lookupWorkload(o.workload, o.small)
	if err != nil {
		return result{}, err
	}
	if o.seconds <= 0 {
		return result{}, errors.New("--seconds must be positive")
	}
	dir := filepath.Join(o.out, "work", fmt.Sprintf("%s-%d-%d", w.name, o.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)

	warm := w.warmDesigns(o.seed)
	for i := range warm {
		if err := generate(&warm[i], dir); err != nil {
			return result{}, err
		}
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	g := newGate()
	defer func() {
		for _, m := range g.mismatches {
			fmt.Fprintln(log, "MISMATCH:", m)
		}
	}()
	vals := make(map[string]float64)
	var attempted, failed int
	if w.daemon {
		attempted, failed, err = benchDaemon(w, o, dir, warm, tr, g, vals, log)
	} else {
		attempted, failed, err = benchBatch(w, o, dir, warm, tr, g, vals, log)
	}
	if err != nil {
		return result{}, err
	}
	vals["ops_ok_share"] = float64(attempted-failed) / float64(attempted)

	fmt.Fprintf(log, "workload %s seed %d: %d operations, %d failed\n", w.name, o.seed, attempted, failed)
	defs := endToEnd
	if o.trace {
		defs = perLayer
		printSelfTimes(log, tr)
		path := filepath.Join(o.out, "traces", fmt.Sprintf("%s-seed%d.json", w.name, o.seed))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return result{}, err
		}
		if err := tr.writeFile(path); err != nil {
			return result{}, err
		}
		fmt.Fprintln(log, "spans written to", path)
	}
	metrics, missing := fill(defs, vals)
	if len(missing) > 0 {
		g.fail("metrics not measured: %s", strings.Join(missing, ", "))
	}
	for _, d := range defs {
		if m, ok := metrics[d.Name]; ok {
			fmt.Fprintf(log, "  %-28s %14.4f %s\n", d.Name, m.Value, d.Unit)
		}
	}
	return result{Correct: len(g.mismatches) == 0, Attempted: attempted, Failed: failed, Metrics: metrics}, nil
}

func benchBatch(w workload, o options, dir string, warm []design, tr *tracer, g *gate, vals map[string]float64, log io.Writer) (int, int, error) {
	pool := designSeeds(o.seed, w.profiles, w.perProfile)
	setup, err := timedSetup(func() error {
		for i := range pool {
			if err := generate(&pool[i], dir); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	for i := range warm {
		if _, _, _, err := libraryOp(&warm[i], w.verify, nil, 0); err != nil {
			g.fail("warm-up: %v", err)
		}
	}
	run := runBatch(w, pool, o.seconds, tr, g)
	attempted := len(run.late)
	vals["setup_s"] = setup
	gates, busyMS := opMetrics(log, w, run.samples, vals)
	// Gates per millisecond is thousands of gates per second.
	vals["throughput_kgates_s"] = gates / busyMS
	vals["peak_heap_mb"] = run.heap.peakMB()
	var evals []*report.Evaluation
	for _, d := range pool {
		evals = append(evals, g.first[d.Name].Eval)
	}
	quality(evals, vals)
	vals["loadgen.late_p99_ms"] = percentile(run.late, 99)
	vals["runtime.gc_cpu_share"] = run.gc.share
	if tr != nil && len(run.traces) > 0 {
		if err := libraryLayers(tr, run.traces, vals); err != nil {
			return 0, 0, err
		}
	}
	if tr != nil {
		zeroServiceLayers(vals)
	}
	return attempted, run.failed, nil
}

func benchDaemon(w workload, o options, dir string, warm []design, tr *tracer, g *gate, vals map[string]float64, log io.Writer) (int, int, error) {
	openSeconds := o.seconds * openShare
	perProfile := daemonPerProfile(daemonRate, openSeconds, len(w.profiles))
	pool := daemonPool(o.seed, w.profiles, perProfile)
	arr := schedule(o.seed, len(w.profiles), perProfile, daemonRate, openSeconds)
	journal := filepath.Join(dir, "journal.wal")
	var srv *service.Server
	defer func() {
		if srv != nil {
			srv.Close()
		}
	}()
	setup, err := timedSetup(func() error {
		for i := range pool {
			if err := generate(&pool[i].design, dir); err != nil {
				return err
			}
			if err := encodeBody(&pool[i]); err != nil {
				return err
			}
		}
		// Each set-up starts the server on a fresh journal; the last one
		// serves the run.
		if srv != nil {
			srv.Close()
			srv = nil
		}
		if err := os.Remove(journal); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
		s, err := service.New(service.Config{Workers: daemonWorkers, JournalPath: journal})
		srv = s
		return err
	})
	if err != nil {
		return 0, 0, err
	}
	var warmBodies [][]byte
	for _, d := range warm {
		wd := daemonDesign{design: d}
		if err := encodeBody(&wd); err != nil {
			return 0, 0, err
		}
		warmBodies = append(warmBodies, wd.body)
	}
	run := runDaemon(pool, arr, srv, warmBodies, tr, g)
	srv.Close()
	srv = nil
	capLimit := time.Duration((o.seconds - openSeconds) * float64(time.Second))
	capResults, capTime, err := runCapacity(pool, filepath.Join(dir, "capacity.wal"), capLimit)
	if err != nil {
		return 0, 0, err
	}

	all := append(append([]reqResult(nil), run.results...), capResults...)
	failed, lib, traces := checkDaemon(pool, all, g, tr)
	var samples []opSample
	for _, r := range run.results {
		if r.err == nil {
			samples = append(samples, opSample{ms: r.ms, hit: r.hit, trace: r.traced})
		}
	}
	var capGates float64
	for _, r := range capResults {
		if r.err == nil && !r.hit {
			capGates += float64(g.first[pool[r.design].Name].Gates)
		}
	}
	vals["setup_s"] = setup
	opMetrics(log, w, samples, vals)
	if capGates > 0 {
		// Gates per millisecond is thousands of gates per second.
		vals["throughput_kgates_s"] = capGates / (float64(capTime.Nanoseconds()) / 1e6)
	}
	fmt.Fprintf(log, "capacity phase: %d requests in %.0f ms\n", len(capResults), float64(capTime.Nanoseconds())/1e6)
	vals["peak_heap_mb"] = run.heap.peakMB()
	var evals []*report.Evaluation
	for _, c := range lib {
		evals = append(evals, c.Eval)
	}
	quality(evals, vals)
	vals["loadgen.late_p99_ms"] = lateP99(run.results)
	vals["runtime.gc_cpu_share"] = run.gc.share
	if tr != nil {
		if len(traces) > 0 {
			if err := libraryLayers(tr, traces, vals); err != nil {
				return 0, 0, err
			}
		}
		serviceLayers(tr, run, vals)
		if err := journalReplay(journal, vals, run.counters.JobsAccepted); err != nil {
			return 0, 0, err
		}
	}
	return len(all), failed, nil
}

// opMetrics fills the latency metrics of the completed operations and, in a
// traced run, the tracing overhead, and returns the gates they processed and
// their summed latency. The tail is the workload's percentile, lowered if
// this run has too few samples beyond it.
func opMetrics(log io.Writer, w workload, samples []opSample, vals map[string]float64) (gates, busyMS float64) {
	var all, miss, hit, traced, untraced []float64
	for _, s := range samples {
		all = append(all, s.ms)
		if s.hit {
			hit = append(hit, s.ms)
		} else {
			miss = append(miss, s.ms)
		}
		if s.trace {
			traced = append(traced, s.ms)
		} else {
			untraced = append(untraced, s.ms)
		}
		gates += float64(s.gates)
		busyMS += s.ms
	}
	p := pickTail(len(all), w.tailPct)
	vals["e2e_p50_ms"] = p50(all)
	vals["e2e_tail_ms"] = percentile(all, p)
	vals["miss_p50_ms"] = p50(miss)
	vals["hit_p50_ms"] = p50(hit)
	if len(traced) > 0 {
		vals["trace.overhead_pct"] = (p50(traced)/p50(untraced) - 1) * 100
	}
	fmt.Fprintf(log, "e2e_tail_ms is p%g of %d operations (%d beyond it); %d misses, %d hits\n",
		p, len(all), beyond(len(all), p), len(miss), len(hit))
	return gates, busyMS
}

// quality averages the Table-1 scores over the distinct designs with a
// report that passed the gate, one evaluation each; a design without one
// (nil) is left out. With none, the scores stay unmeasured.
func quality(evals []*report.Evaluation, vals map[string]float64) {
	var full, not, frag, n float64
	for _, ev := range evals {
		if ev == nil {
			continue
		}
		full += ev.FullyFoundPct
		not += ev.NotFoundPct
		frag += ev.FragmentationRate
		n++
	}
	if n > 0 {
		vals["fully_found_pct"], vals["not_found_pct"], vals["fragmentation_rate"] = full/n, not/n, frag/n
	}
}

// zeroServiceLayers records that a batch workload spends no time in the
// daemon's layers.
func zeroServiceLayers(vals map[string]float64) {
	for _, d := range perLayer {
		if strings.HasPrefix(d.Name, "service.") || strings.HasPrefix(d.Name, "journal.") {
			vals[d.Name] = 0
		}
	}
}

// printSelfTimes prints each span name's count, total and self time.
func printSelfTimes(log io.Writer, tr *tracer) {
	fmt.Fprintf(log, "%-22s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, lt := range summarize(tr.closed()) {
		fmt.Fprintf(log, "%-22s %8d %12.3f %12.3f\n", lt.Name, lt.Count, lt.TotalMS, lt.SelfMS)
	}
}
