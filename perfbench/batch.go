package main

import (
	"bytes"
	"fmt"
	"time"

	"gatewords"
)

// opTrace is what one traced library-path operation yields beyond its
// spans: the pipeline's own accounting, read through the public Observer and
// Trace options.
type opTrace struct {
	design    *design
	observer  []byte   // Observer.MarshalJSON
	trace     []string // Report.Trace
	proved    int
	allocMB   float64 // allocated while parsing
	reportLen int
}

// libraryOp runs the batch path on one design: ParseVerilog, Fingerprint,
// Identify, Evaluate and WriteJSON, from Verilog bytes to report bytes. With a
// tracer it records a span around each layer call and turns on the Observer
// and Trace options; without one it leaves both off.
func libraryOp(d *design, verify bool, tr *tracer, req int) (rep []byte, fp string, ot *opTrace, err error) {
	root := tr.begin("op", 0, req)
	defer tr.end(root)
	opt := gatewords.Options{Workers: 1, VerifyReduction: verify}
	if tr != nil {
		ot = &opTrace{design: d}
		opt.Observer = gatewords.NewObserver()
		opt.Trace = true
	}

	sp := tr.begin("verilog.parse", root, req)
	var alloc0 uint64
	if ot != nil {
		alloc0 = heapAllocBytes()
	}
	des, err := gatewords.ParseVerilog(d.Name+".v", bytes.NewReader(d.Src))
	if ot != nil {
		ot.allocMB = float64(heapAllocBytes()-alloc0) / 1e6
	}
	tr.end(sp)
	if err != nil {
		return nil, "", nil, fmt.Errorf("%s: parse: %w", d.Name, err)
	}

	sp = tr.begin("netlist.fingerprint", root, req)
	fp = des.Fingerprint()
	tr.end(sp)

	sp = tr.begin("core.identify", root, req)
	t0 := time.Now()
	r, err := gatewords.Identify(des, opt)
	took := time.Since(t0)
	tr.end(sp)
	if err != nil {
		return nil, "", nil, fmt.Errorf("%s: identify: %w", d.Name, err)
	}
	if v := r.ReductionVerification; verify && (v == nil || v.ConesRefuted > 0) {
		return nil, "", nil, fmt.Errorf("%s: reduction verification missing or refuted", d.Name)
	}

	sp = tr.begin("metrics.evaluate", root, req)
	ev := gatewords.Evaluate(des, r)
	tr.end(sp)

	sp = tr.begin("report.encode", root, req)
	var buf bytes.Buffer
	err = gatewords.WriteJSON(&buf, des, r, &ev, false, took)
	tr.end(sp)
	if err != nil {
		return nil, "", nil, fmt.Errorf("%s: encode: %w", d.Name, err)
	}

	if ot != nil {
		if ot.observer, err = opt.Observer.MarshalJSON(); err != nil {
			return nil, "", nil, err
		}
		ot.trace = r.Trace
		if r.ReductionVerification != nil {
			ot.proved = r.ReductionVerification.ConesProved
		}
		ot.reportLen = buf.Len()
	}
	return buf.Bytes(), fp, ot, nil
}

// opSample is one operation's latency and outcome.
type opSample struct {
	ms    float64
	hit   bool // the source was seen before in this run
	gates int
	trace bool
}

// batchRun is what the measured phase of a batch workload produced.
type batchRun struct {
	samples []opSample
	late    []float64
	traces  []*opTrace
	failed  int
	gc      gcWindow
	heap    *heapSampler
}

// runBatch measures a batch workload: one design at a time in a closed loop,
// cycling over the pool in whole rounds until the run's seconds have passed
// and every design has run at least twice (so that repeats of a source are
// always checked). Whole rounds keep every design's share of the samples
// equal. In a traced run operations alternate between traced
// and untraced, so that each design runs both ways and the difference is the
// tracing overhead.
func runBatch(w workload, pool []design, seconds float64, tr *tracer, g *gate) batchRun {
	var run batchRun
	limit := time.Duration(seconds * float64(time.Second))
	fps := make(map[string]string)
	run.heap = startHeapSampler()
	run.gc = startGCWindow()
	start := time.Now()
	prevEnd := start
	for i := 0; i < 2*len(pool) || i%len(pool) != 0 || time.Since(start) < limit; i++ {
		d := &pool[i%len(pool)]
		traced := tr != nil && (i%len(pool)+i/len(pool))%2 == 1
		var optr *tracer
		if traced {
			optr = tr
		}
		t0 := time.Now()
		run.late = append(run.late, float64(t0.Sub(prevEnd).Nanoseconds())/1e6)
		rep, fp, ot, err := libraryOp(d, w.verify, optr, i+1)
		prevEnd = time.Now()
		ms := float64(prevEnd.Sub(t0).Nanoseconds()) / 1e6
		if err != nil {
			g.fail("%v", err)
			run.failed++
			continue
		}
		c, err := check(rep)
		if err != nil {
			g.fail("%s: %v", d.Name, err)
			run.failed++
			continue
		}
		if prev, ok := fps[d.Name]; ok && prev != fp {
			g.fail("%s: fingerprint changed between runs of the same source", d.Name)
			run.failed++
			continue
		}
		fps[d.Name] = fp
		if !g.same(d.Name, c) {
			run.failed++
			continue
		}
		run.samples = append(run.samples, opSample{ms: ms, hit: i >= len(pool), gates: c.Gates, trace: traced})
		if ot != nil {
			run.traces = append(run.traces, ot)
		}
	}
	run.gc.stop()
	run.heap.stop()
	return run
}
