package main

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildCoverageOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "a", Start: 1, End: 3},
		{ID: 3, Parent: 1, Name: "b", Start: 2, End: 5}, // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 7, End: 8},
		{ID: 5, Parent: 1, Name: "d", Start: 9, End: 12}, // runs past op
		{ID: 6, Parent: 3, Name: "e", Start: 2, End: 4},  // grandchild of op
	}
	self := selfTimes(spans)
	// op is covered on [1,5], [7,8] and [9,10]: 6 of its 10 ms.
	want := map[int]float64{1: 4, 2: 2, 3: 1, 4: 1, 5: 3, 6: 2}
	for id, w := range want {
		if math.Abs(self[id]-w) > 1e-9 {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
	sum := summarize(spans)
	if len(sum) != 6 || sum[0].Name != "a" || sum[5].Name != "op" || sum[5].SelfMS != 4 {
		t.Errorf("summarize = %+v", sum)
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("op", 0, 1)
	tr.end(id)
	if id != 0 || tr.closed() != nil {
		t.Fatalf("nil tracer recorded a span")
	}
	tr = newTracer()
	root := tr.begin("op", 0, 7)
	child := tr.begin("verilog.parse", root, 7)
	tr.end(child)
	tr.begin("unfinished", root, 7) // never ended, so never reported
	tr.end(root)
	got := tr.closed()
	if len(got) != 2 || got[1].Parent != root || got[1].Req != 7 || got[1].End < got[1].Start {
		t.Fatalf("closed spans = %+v", got)
	}
}

func TestPickTail(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		got  float64
	}{
		{2400, 95, 95},
		{2400, 99, 99},
		{320, 95, 95},    // 16 samples beyond p95
		{100, 99, 90},    // p99 and p95 leave 1 and 5 beyond; p90 leaves 10
		{20, 95, 50},     // only the median leaves ten beyond
		{19, 95, 95},     // no percentile leaves ten beyond: the workload's own
		{10, 90, 90},     // itc-large: a handful of operations
		{5000, 100, 100}, // a workload that asks for the maximum keeps it
	}
	for _, c := range cases {
		if p := pickTail(c.n, c.want); p != c.got {
			t.Errorf("pickTail(%d, %v) = %v, want %v", c.n, c.want, p, c.got)
		}
		if p := pickTail(c.n, c.want); c.n >= 20 && p < 100 && beyond(c.n, p) < 10 {
			t.Errorf("pickTail(%d, %v) = p%v leaves %d beyond", c.n, c.want, p, beyond(c.n, p))
		}
	}
}

func TestPercentiles(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	if got := percentile(xs, 95); got != 95 {
		t.Errorf("p95 of 1..100 = %v, want 95", got)
	}
	if got := percentile(xs, 100); got != 100 {
		t.Errorf("p100 of 1..100 = %v, want 100", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := p50([]float64{5, 1, 3}); got != 3 {
		t.Errorf("p50 of few samples = %v, want the median 3", got)
	}
	// Two equal clusters: the window mean sits between them and moves
	// little when one more sample lands on either side.
	var bi []float64
	for i := 0; i < 100; i++ {
		bi = append(bi, 1+float64(i)/1000, 5+float64(i)/1000)
	}
	a := p50(bi)
	b := p50(append(bi, 1))
	if a < 2 || a > 4 || math.Abs(a-b) > 0.25 {
		t.Errorf("p50 of two clusters = %v, then %v with one more low sample", a, b)
	}
}

func TestParseTrialLog(t *testing.T) {
	lines := []string{
		"subgroup n12: 3 dissimilar subtrees, 2 control signals",
		"subgroup n12: trial U1=0 infeasible",
		"subgroup n12: trial U1=1 -> max class 2/4",
		"subgroup n12: trial U1=1, U2=0 -> max class 4/4",
		"subgroup n12: verified 4-bit word via assignment U1=1, U2=0",
		"subgroup n40: trial U1=1 -> max class 3/3",
		"subgroup n40: verified 3-bit word via assignment U1=1",
		"VERIFY n12 under U1=1, U2=0: equivalent (stage sat)",
	}
	tl := parseTrialLog(lines)
	if tl.trials != 4 || tl.verified != 2 {
		t.Errorf("trials=%d verified=%d, want 4 and 2", tl.trials, tl.verified)
	}
	want := []string{"U1=0", "U1=1", "U1=1, U2=0"}
	if strings.Join(tl.distinct, "|") != strings.Join(want, "|") {
		t.Errorf("distinct = %q, want %q", tl.distinct, want)
	}
}

func TestScheduleSubmitsEachDesignNewOnce(t *testing.T) {
	const profiles, perProfile = 8, 6
	arr := schedule(42, profiles, perProfile, 48, 3)
	if len(arr) != 144 {
		t.Fatalf("%d arrivals, want 144", len(arr))
	}
	seen := make(map[int]bool)
	perProf := make([]int, profiles)
	prev := arr[0].due
	for i, a := range arr {
		if a.due < prev || a.due < 0 || a.due.Seconds() > 3 {
			t.Fatalf("arrival %d due at %v after %v", i, a.due, prev)
		}
		prev = a.due
		if !seen[a.design] {
			seen[a.design] = true
			perProf[a.design%profiles]++
		}
	}
	if len(seen) != profiles*perProfile {
		t.Errorf("%d designs submitted, want %d", len(seen), profiles*perProfile)
	}
	for p, n := range perProf {
		if n != perProfile {
			t.Errorf("profile %d: %d designs, want %d", p, n, perProfile)
		}
	}
	again := schedule(42, profiles, perProfile, 48, 3)
	for i := range arr {
		if arr[i] != again[i] {
			t.Fatalf("schedule is not a function of the seed (arrival %d)", i)
		}
	}
}

func TestGateRejectsIncompleteAndDivergentReports(t *testing.T) {
	good := `{"tool":"gatewords","module":"m","technique":"control-signals","stats":{"nets":3,"gates":2,"dffs":1,"inputs":1,"outputs":1},"words":[{"bits":["a","b"],"verified":true}],"runtime_seconds":0.5}`
	c, err := checkReport([]byte(good))
	if err != nil || c.Gates != 3 {
		t.Fatalf("good report: %+v, %v", c, err)
	}
	slower := strings.Replace(good, "0.5", "0.9", 1)
	c2, err := checkReport([]byte(slower))
	if err != nil || c2.Digest != c.Digest {
		t.Fatalf("runtime changed the digest: %v", err)
	}
	g := newGate()
	if !g.same("m", c) || !g.same("m", c2) || len(g.mismatches) != 0 {
		t.Fatalf("reports differing only in runtime_seconds mismatched: %v", g.mismatches)
	}
	other, _ := checkReport([]byte(strings.Replace(good, `"verified":true`, `"verified":false`, 1)))
	if g.same("m", other) || len(g.mismatches) != 1 {
		t.Fatalf("a different word list passed the gate")
	}
	for _, bad := range []string{
		`not json`,
		strings.Replace(good, `"runtime_seconds"`, `"interrupted":true,"runtime_seconds"`, 1),
		strings.Replace(good, `"runtime_seconds"`, `"failures":[{"group":1,"stage":"trial","message":"x"}],"runtime_seconds"`, 1),
		strings.Replace(good, `"runtime_seconds"`, `"degradations":[{"group":1,"subgroup":"a","reason":"r","detail":"d"}],"runtime_seconds"`, 1),
	} {
		if _, err := checkReport([]byte(bad)); err == nil {
			t.Errorf("checkReport accepted %s", bad)
		}
	}
}

// benchmarkJSON is the part of ../BENCHMARK.json the tests compare against.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestMetricTableMatchesBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	check := func(kind string, defs []metricDef, listed []struct{ Name, Unit, Better string }) {
		if len(defs) != len(listed) {
			t.Errorf("%s: %d metrics in the code, %d in BENCHMARK.json", kind, len(defs), len(listed))
			return
		}
		for i, d := range defs {
			l := listed[i]
			if d.Name != l.Name || d.Unit != l.Unit || d.Better != l.Better {
				t.Errorf("%s %d: code has %+v, BENCHMARK.json has %+v", kind, i, d, l)
			}
		}
	}
	check("end_to_end", endToEnd, bj.EndToEnd)
	check("per_layer", perLayer, bj.PerLayer)
	for _, w := range bj.Workloads {
		if _, err := lookupWorkload(w.Name, false); err != nil {
			t.Errorf("BENCHMARK.json workload %s: %v", w.Name, err)
		}
	}
}

// TestSmokeEachWorkload runs every workload at its smallest size, untraced
// and traced, and checks that the run is correct and that it emits exactly
// the metric names BENCHMARK.json lists.
func TestSmokeEachWorkload(t *testing.T) {
	bj := readBenchmarkJSON(t)
	names := func(list []struct{ Name, Unit, Better string }) []string {
		var out []string
		for _, m := range list {
			out = append(out, m.Name)
		}
		sort.Strings(out)
		return out
	}
	for _, w := range bj.Workloads {
		if testing.Short() && w.Name == "itc-large" {
			continue // a b18a-sized design takes seconds per operation
		}
		for _, traced := range []bool{false, true} {
			o := options{workload: w.Name, seed: 7, seconds: 0.2, trace: traced, out: t.TempDir(), small: true}
			res, err := measure(o, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			var got []string
			for name := range res.Metrics {
				got = append(got, name)
			}
			sort.Strings(got)
			want := names(bj.EndToEnd)
			if traced {
				want = names(bj.PerLayer)
			}
			if strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("%s traced=%v emitted %v, BENCHMARK.json lists %v", w.Name, traced, got, want)
			}
			if !traced && res.Metrics["throughput_kgates_s"].Value <= 0 {
				t.Errorf("%s: throughput %v", w.Name, res.Metrics["throughput_kgates_s"].Value)
			}
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seconds", "1"},
		{"--workload", "daemon-mix", "--trace", "2"},
		{"--workload", "daemon-mix", "--seconds", "0"},
	} {
		var out strings.Builder
		if code := run(append(args, "-out", t.TempDir()), &out, io.Discard); code != 2 || out.Len() != 0 {
			t.Errorf("run(%v) = %d with output %q, want exit 2 and no result", args, code, out.String())
		}
	}
}

// TestSubmitFailureStatuses checks that only the daemon's overload and
// quarantine refusals (429, 503, 422) count as refusals. Any other failed
// submit, such as a 400 from the daemon's own parse or a 500, is a mismatch
// that fails the run.
func TestSubmitFailureStatuses(t *testing.T) {
	for _, c := range []struct {
		code     int
		mismatch bool
	}{
		{http.StatusTooManyRequests, false},
		{http.StatusServiceUnavailable, false},
		{http.StatusUnprocessableEntity, false},
		{http.StatusBadRequest, true},
		{http.StatusInternalServerError, true},
	} {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, `{"error":"no"}`, c.code)
		}))
		cl := &client{base: ts.URL, http: ts.Client()}
		r := cl.request([]byte(`{}`), nil, 1, time.Now())
		ts.Close()
		g := newGate()
		pool := []daemonDesign{{design: design{Name: "b05a-s1"}}}
		failed, lib, _ := checkDaemon(pool, []reqResult{r}, g, nil)
		if failed != 1 || len(lib) != 0 {
			t.Errorf("status %d: failed=%d served=%d, want 1 and 0", c.code, failed, len(lib))
		}
		if got := len(g.mismatches) > 0; got != c.mismatch {
			t.Errorf("status %d: mismatch=%v (%v), want %v", c.code, got, g.mismatches, c.mismatch)
		}
	}
}

// TestFailingReportExitsOne forces every report to fail the gate and checks
// that the command still prints the mismatches and a result line with
// correct false, and exits 1, on a batch workload and on the daemon.
func TestFailingReportExitsOne(t *testing.T) {
	check = func([]byte) (checked, error) { return checked{}, errors.New("forced failure") }
	defer func() { check = checkReport }()
	names := []string{"itc-large", "daemon-mix"}
	if testing.Short() {
		names = names[1:] // a b18a-sized design takes seconds per operation
	}
	for _, name := range names {
		var out strings.Builder
		o := options{workload: name, seed: 7, seconds: 0.2, out: t.TempDir(), small: true}
		if code := execute(o, &out, io.Discard); code != 1 {
			t.Errorf("%s: exit %d, want 1", name, code)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("%s: last line is not a result: %v", name, err)
		}
		if res.Correct || res.Attempted < 1 || res.Failed != res.Attempted {
			t.Errorf("%s: correct=%v attempted=%d failed=%d, want every operation failed", name, res.Correct, res.Attempted, res.Failed)
		}
		if !strings.Contains(out.String(), "MISMATCH: ") || !strings.Contains(out.String(), "forced failure") {
			t.Errorf("%s: the mismatches are not printed:\n%s", name, out.String())
		}
	}
}
