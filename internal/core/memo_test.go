package core

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"gatewords/internal/group"
	"gatewords/internal/guard"
	"gatewords/internal/logic"
	"gatewords/internal/netlist"
	"gatewords/internal/obs"
	"gatewords/internal/reduce"
)

// TestMemoServesRepeats: a repeated assignment — in any pin order — is
// served from the memo with the same reduction (or the same conflict) and
// counts a hit instead of gate visits.
func TestMemoServesRepeats(t *testing.T) {
	nl, _, k, k2 := wordNet(t, 4, true)
	m := newReductionMemo(nl)
	rec := obs.New()
	a := map[netlist.NetID]logic.Value{k: logic.Zero, k2: logic.One}
	red1, err := m.apply(a, rec, 0)
	if err != nil {
		t.Fatal(err)
	}
	visits := rec.Count(obs.CtrReduceGateVisits)
	red2, err := m.apply(map[netlist.NetID]logic.Value{k2: logic.One, k: logic.Zero}, rec, 1)
	if err != nil || red2 != red1 {
		t.Fatalf("repeat not served from the memo: %p vs %p, %v", red2, red1, err)
	}
	if got := rec.Count(obs.CtrReduceGateVisits); got != visits {
		t.Errorf("repeat propagated again: %d gate visits, want %d", got, visits)
	}
	if got := rec.Count(obs.CtrReduceMemoHits); got != 1 {
		t.Errorf("reduce_memo_hits = %d, want 1", got)
	}

	// k is a NAND output: k=0 forces both inputs to 1, so p=0 conflicts.
	p, _ := nl.NetByName("p")
	bad := map[netlist.NetID]logic.Value{k: logic.Zero, p: logic.Zero}
	_, err1 := m.apply(bad, rec, 0)
	_, err2 := m.apply(bad, rec, 0)
	if err1 == nil || err2 == nil || err1.Error() != err2.Error() {
		t.Fatalf("conflict not cached: %v / %v", err1, err2)
	}
}

// TestMemoLeaderPanicReleasesWaiters: when the propagation leading an
// assignment panics, the panic stays with the leader; trials waiting on the
// same assignment neither block nor inherit it — they propagate it afresh.
func TestMemoLeaderPanicReleasesWaiters(t *testing.T) {
	defer guard.Reset()
	nl, _, k, _ := wordNet(t, 4, false)
	m := newReductionMemo(nl)
	assign := map[netlist.NetID]logic.Value{k: logic.Zero}
	key := canonicalKey(assign)
	c, lead := m.lookup(key)
	if !lead {
		t.Fatal("first lookup did not lead")
	}

	const waiters = 4
	type result struct {
		red *reduce.Reduction
		err error
		pan any
	}
	results := make(chan result, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var r result
			defer func() {
				r.pan = recover()
				results <- r
			}()
			r.red, r.err = m.apply(assign, nil, 1)
		}()
	}
	// Give the waiters time to block on the in-flight call; the contract
	// holds either way, since late arrivals lead a fresh propagation.
	time.Sleep(20 * time.Millisecond)

	guard.Plant("reduce", 0)
	func() {
		defer func() {
			if v := recover(); v == nil {
				t.Error("leader did not panic")
			}
		}()
		m.lead(key, c, assign, nil, 0)
	}()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("waiters blocked after the leader panicked")
	}
	close(results)
	want, err := reduce.Apply(nl, assign)
	if err != nil {
		t.Fatal(err)
	}
	for r := range results {
		if r.pan != nil {
			t.Fatalf("waiter inherited the leader's panic: %v", r.pan)
		}
		if r.err != nil || r.red == nil || r.red.AssignedCount() != want.AssignedCount() {
			t.Fatalf("waiter got %v, %v; want the reduction", r.red, r.err)
		}
	}
	if got, _ := m.lookup(key); got == nil || !got.ok {
		t.Error("assignment not memoized after the retry")
	}
}

// TestFaultReduceLeaderIsolated plants a panic in a memoized propagation on
// a netlist whose groups share assignments: only the leading group fails,
// no waiting group blocks, and every other group's words are exactly the
// clean run's.
func TestFaultReduceLeaderIsolated(t *testing.T) {
	defer guard.Reset()
	nl := sharedNet(t)
	opt := Options{}.withDefaults()
	groups := group.Adjacent(nl, group.Options{})
	// Per-group clean words, from fresh workers so no memo is shared.
	perGroup := make([][]Word, len(groups))
	for gi := range groups {
		perGroup[gi] = newWorker(nl, opt, newReductionMemo(nl)).runGroup(gi, groups[gi]).res.Words
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			guard.Reset()
			guard.Plant("reduce", guard.AnyGroup)
			res := Identify(nl, Options{Workers: workers})
			if guard.Planted() != 0 {
				t.Fatal("the reduce plant did not fire")
			}
			if len(res.Failures) != 1 {
				t.Fatalf("Failures = %v, want exactly one", res.Failures)
			}
			f := res.Failures[0]
			if f.Stage != "trial" || !strings.Contains(f.Message, `stage "reduce"`) {
				t.Errorf("failure = %v, want the reduce fault in stage trial", f)
			}
			var want []Word
			for gi, ws := range perGroup {
				if gi != f.Group {
					want = append(want, ws...)
				}
			}
			if !reflect.DeepEqual(res.Words, want) {
				t.Errorf("surviving groups' words differ from the clean run's")
			}
		})
	}
}
