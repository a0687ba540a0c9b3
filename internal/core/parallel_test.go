package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"gatewords/internal/logic"
	"gatewords/internal/netlist"
	"gatewords/internal/obs"
)

// bigNet stitches several independent word structures together so there are
// enough adjacency groups for parallelism to engage.
func bigNet(t *testing.T) *netlist.Netlist {
	t.Helper()
	nl, _, _, _ := wordNet(t, 4, false)
	// wordNet builds into a fresh netlist; replicate more structures by
	// hand: several uniform columns of different shapes.
	add := func(prefix string, n int) {
		s := nl.MustNet(prefix + "_s")
		nl.MarkPI(s)
		var xs []netlist.NetID
		for i := 0; i < n; i++ {
			sfx := prefix + string(rune('0'+i))
			a := nl.MustNet("a" + sfx)
			nl.MarkPI(a)
			x := nl.MustNet("x" + sfx)
			nl.MustGate("gx"+sfx, pickKind(i), x, a, s)
			xs = append(xs, x)
		}
		for i, x := range xs {
			bit := nl.MustNet("bit" + prefix + string(rune('0'+i)))
			nl.MustGate("gb"+prefix+string(rune('0'+i)), pickKind(0), bit, x, x)
		}
	}
	for _, p := range []string{"p", "q", "r", "w", "v"} {
		add(p, 4)
	}
	if err := nl.Validate(); err != nil {
		t.Fatal(err)
	}
	return nl
}

// sharedNet repeats wordNet's word in several copies that all hang off one
// control net k, each copy its own adjacency group: every group tries the
// assignment k=0, the shape on which the run's reduction memo serves
// repeats across groups.
func sharedNet(t *testing.T) *netlist.Netlist {
	t.Helper()
	nl := netlist.New("shared")
	pi := func(n string) netlist.NetID {
		id := nl.MustNet(n)
		nl.MarkPI(id)
		return id
	}
	p, q := pi("p"), pi("q")
	k := nl.MustNet("k")
	nl.MustGate("gk", logic.Nand, k, p, q)
	for c := 0; c < 4; c++ {
		pfx := fmt.Sprintf("c%d_", c)
		s1, s2 := pi(pfx+"s1"), pi(pfx+"s2")
		var bits [][3]netlist.NetID
		for i := 0; i < 4; i++ {
			sfx := fmt.Sprintf("%s%d", pfx, i)
			x, y, z := nl.MustNet("x"+sfx), nl.MustNet("y"+sfx), nl.MustNet("z"+sfx)
			nl.MustGate("gx"+sfx, logic.Nand, x, pi("a"+sfx), s1)
			nl.MustGate("gy"+sfx, logic.Nand, y, pi("b"+sfx), s2)
			if i == 0 {
				nl.MustGate("gz"+sfx, logic.Nand, z, pi("c"+sfx), k)
			} else {
				inner := nl.MustNet("zi" + sfx)
				nl.MustGate("gzi"+sfx, logic.Nand, inner, pi("c"+sfx), pi("m"+sfx))
				nl.MustGate("gz"+sfx, logic.Nand, z, inner, k)
			}
			bits = append(bits, [3]netlist.NetID{x, y, z})
		}
		for i, b := range bits {
			sfx := fmt.Sprintf("%s%d", pfx, i)
			nl.MustGate("gb"+sfx, logic.Nand, nl.MustNet("bit"+sfx), b[0], b[1], b[2])
		}
	}
	if err := nl.Validate(); err != nil {
		t.Fatal(err)
	}
	return nl
}

func pickKind(i int) logic.Kind {
	kinds := []logic.Kind{logic.Nand, logic.Nor, logic.And, logic.Or}
	return kinds[i%len(kinds)]
}

// TestParallelMatchesSequential requires identical results, stats and
// merged observations at every worker count — on sharedNet too, where the
// groups share assignments, so the memo's single-flight must keep
// reduce_gate_visits and reduce_memo_hits equal to the sequential run's.
func TestParallelMatchesSequential(t *testing.T) {
	for _, tc := range []struct {
		name     string
		nl       *netlist.Netlist
		wantHits bool
	}{{"independent", bigNet(t), false}, {"shared-control", sharedNet(t), true}} {
		t.Run(tc.name, func(t *testing.T) { checkParallelMatchesSequential(t, tc.nl, tc.wantHits) })
	}
}

func checkParallelMatchesSequential(t *testing.T, nl *netlist.Netlist, wantHits bool) {
	seqRec := obs.New()
	seq := Identify(nl, Options{Observer: seqRec})
	if seq.Stats.Interrupted {
		t.Fatal("sequential run without a context marked interrupted")
	}
	if hits := seqRec.Count(obs.CtrReduceMemoHits); (hits > 0) != wantHits {
		t.Fatalf("reduce_memo_hits = %d, want hits: %v", hits, wantHits)
	}
	for _, workers := range []int{2, 4, 8, -1} {
		parRec := obs.New()
		par := Identify(nl, Options{Workers: workers, Observer: parRec})
		if !reflect.DeepEqual(seq.GeneratedWords(), par.GeneratedWords()) {
			t.Fatalf("workers=%d: words differ", workers)
		}
		if !reflect.DeepEqual(seq.UsedControlSignals, par.UsedControlSignals) {
			t.Fatalf("workers=%d: used control signals differ", workers)
		}
		if !reflect.DeepEqual(seq.FoundControlSignals, par.FoundControlSignals) {
			t.Fatalf("workers=%d: found control signals differ", workers)
		}
		// The full Stats struct — including Interrupted and the verification
		// counters — must match the sequential run exactly: parallel merging
		// is in group order and groups are independent.
		if seq.Stats != par.Stats {
			t.Fatalf("workers=%d: stats differ:\nseq %+v\npar %+v", workers, seq.Stats, par.Stats)
		}
		// The merged observer must agree with the sequential one on
		// everything deterministic: work counters, peak gauges, and span
		// counts. (Stage wall times are scheduling-dependent and excluded.)
		for c := obs.Counter(0); c < obs.NumCounters; c++ {
			if seqRec.Count(c) != parRec.Count(c) {
				t.Errorf("workers=%d: counter %s = %d, seq %d", workers, c, parRec.Count(c), seqRec.Count(c))
			}
		}
		for g := obs.Gauge(0); g < obs.NumGauges; g++ {
			if seqRec.GaugeValue(g) != parRec.GaugeValue(g) {
				t.Errorf("workers=%d: gauge %s = %d, seq %d", workers, g, parRec.GaugeValue(g), seqRec.GaugeValue(g))
			}
		}
		for s := obs.Stage(0); s < obs.NumStages; s++ {
			if seqRec.StageSpans(s) != parRec.StageSpans(s) {
				t.Errorf("workers=%d: stage %s spans = %d, seq %d", workers, s, parRec.StageSpans(s), seqRec.StageSpans(s))
			}
		}
	}
}

// TestParallelCancelledContext pins cancellation in the fan-out path: a
// context cancelled before the run starts yields an empty, interrupted
// Result from both the sequential and the parallel pipeline.
func TestParallelCancelledContext(t *testing.T) {
	nl := bigNet(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{0, 2, 8} {
		res := Identify(nl, Options{Workers: workers, Context: ctx, Observer: obs.New()})
		if !res.Stats.Interrupted {
			t.Fatalf("workers=%d: cancelled run not marked interrupted", workers)
		}
		if len(res.Words) != 0 {
			t.Fatalf("workers=%d: cancelled-before-start run emitted %d words", workers, len(res.Words))
		}
	}
}
