package gatewords

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

// renderReport serializes a report with a pinned runtime so two runs of the
// same configuration are byte-comparable.
func renderReport(t *testing.T, d *Design, rep *Report, ev *Evaluation) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, d, rep, ev, false, 42*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func observerCounters(t *testing.T, o *Observer) map[string]int64 {
	t.Helper()
	raw, err := o.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Counters []struct {
			Name  string `json:"name"`
			Value int64  `json:"value"`
		} `json:"counters"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]int64, len(doc.Counters))
	for _, c := range doc.Counters {
		out[c.Name] = c.Value
	}
	return out
}

// TestConcurrentIdentifySharedDesignAndObserver is the facade concurrency
// contract: one Design and one Observer shared by many simultaneous
// Identify calls — mixed sequential/parallel, with and without reduction
// verification, interleaved with baseline identification and evaluation —
// must produce exactly the reports the same configurations produce alone,
// and the shared Observer must end up with the precise sum of every run's
// work counters (no lost updates, no aliased recorders). Run under -race.
func TestConcurrentIdentifySharedDesignAndObserver(t *testing.T) {
	d, err := GenerateBenchmark("b08a")
	if err != nil {
		t.Fatal(err)
	}

	configs := []Options{
		{Workers: 1},
		{Workers: 4},
		{Workers: 1, VerifyReduction: true},
		{Workers: 4, VerifyReduction: true},
	}
	const runsPerConfig = 2

	// Expected outputs and counter totals, computed run-by-run in isolation.
	expected := make([][]byte, len(configs))
	wantCounters := map[string]int64{}
	for i, opt := range configs {
		solo := NewObserver()
		opt.Observer = solo
		rep, err := Identify(d, opt)
		if err != nil {
			t.Fatal(err)
		}
		ev := Evaluate(d, rep)
		expected[i] = renderReport(t, d, rep, &ev)
		for name, v := range observerCounters(t, solo) {
			wantCounters[name] += v * runsPerConfig
		}
	}

	shared := NewObserver()
	var wg sync.WaitGroup
	errs := make(chan error, len(configs)*runsPerConfig+2)
	for i, opt := range configs {
		for r := 0; r < runsPerConfig; r++ {
			wg.Add(1)
			go func(i int, opt Options) {
				defer wg.Done()
				opt.Observer = shared
				rep, err := Identify(d, opt)
				if err != nil {
					errs <- fmt.Errorf("config %d: %v", i, err)
					return
				}
				ev := Evaluate(d, rep)
				if got := renderReport(t, d, rep, &ev); !bytes.Equal(got, expected[i]) {
					errs <- fmt.Errorf("config %d: concurrent report differs from its solo run", i)
				}
			}(i, opt)
		}
	}
	// Readers and unrelated pipelines share the Design at the same time:
	// the baseline identifier, and a snapshot reader racing the writers.
	wg.Add(2)
	go func() {
		defer wg.Done()
		if _, err := IdentifyBaseline(d, 0); err != nil {
			errs <- fmt.Errorf("baseline: %v", err)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if _, err := shared.Snapshot().MarshalJSON(); err != nil {
				errs <- fmt.Errorf("snapshot: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	got := observerCounters(t, shared)
	for name, want := range wantCounters {
		if got[name] != want {
			t.Errorf("shared observer counter %s = %d, want %d (sum of %d runs)",
				name, got[name], want, len(configs)*runsPerConfig)
		}
	}
}

// TestObserverSnapshot pins the read side of a shared Observer: a Snapshot
// is immutable while its source keeps recording, and the source itself
// accumulates the new run.
func TestObserverSnapshot(t *testing.T) {
	d, err := GenerateBenchmark("b03a")
	if err != nil {
		t.Fatal(err)
	}
	total := NewObserver()
	if _, err := Identify(d, Options{Observer: total}); err != nil {
		t.Fatal(err)
	}
	snap := total.Snapshot()
	before := observerCounters(t, snap)
	if _, err := Identify(d, Options{Observer: total}); err != nil {
		t.Fatal(err)
	}
	if after := observerCounters(t, snap); !mapsEqual(before, after) {
		t.Error("snapshot changed when its source recorded a new run")
	}
	got := observerCounters(t, total)
	for name, v := range before {
		if got[name] != 2*v {
			t.Errorf("source counter %s = %d after two runs, want %d", name, got[name], 2*v)
		}
	}
}

func mapsEqual(a, b map[string]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}
