package cone

import (
	"math/rand"
	"testing"

	"gatewords/internal/logic"
	"gatewords/internal/netlist"
	"gatewords/internal/reduce"
)

// randCircuit builds a layered random combinational circuit: nPI primary
// inputs followed by nGates gates whose inputs are drawn from earlier nets.
// A few DFFs are sprinkled in so boundary handling is exercised too.
func randCircuit(rng *rand.Rand, nPI, nGates int) (*netlist.Netlist, []netlist.NetID) {
	nl := netlist.New("rand")
	var nets []netlist.NetID
	for i := 0; i < nPI; i++ {
		id := nl.MustNet("pi" + string(rune('a'+i)))
		nl.MarkPI(id)
		nets = append(nets, id)
	}
	kinds := []logic.Kind{logic.And, logic.Or, logic.Nand, logic.Nor, logic.Xor, logic.Not}
	var driven []netlist.NetID
	for i := 0; i < nGates; i++ {
		out := nl.MustNet("n" + itoa(i))
		kind := kinds[rng.Intn(len(kinds))]
		if rng.Intn(10) == 0 {
			kind = logic.DFF
		}
		nIn := 2 + rng.Intn(2)
		if kind == logic.Not || kind == logic.DFF {
			nIn = 1
		}
		ins := make([]netlist.NetID, nIn)
		for j := range ins {
			ins[j] = nets[rng.Intn(len(nets))]
		}
		nl.MustGate("g"+itoa(i), kind, out, ins...)
		nets = append(nets, out)
		driven = append(driven, out)
	}
	return nl, driven
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

// TestOverlayMatchesFreshBuilder is the soundness check for the incremental
// trial path: for random circuits and random assignments, every key the
// Overlay produces over the reduced view must equal the key a from-scratch
// Builder over the same view (sharing the interner) produces.
func TestOverlayMatchesFreshBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const depth = DefaultDepth
	for trial := 0; trial < 50; trial++ {
		nl, driven := randCircuit(rng, 5, 40)
		if err := nl.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		it := NewInterner()
		base := NewBuilder(nl, it, depth)
		// Warm the base memo the way the pipeline does: key every driven net.
		for _, n := range driven {
			base.Bit(n)
		}

		// Random assignment of one or two PIs.
		assign := map[netlist.NetID]logic.Value{}
		for k := 0; k < 1+rng.Intn(2); k++ {
			pi := netlist.NetID(rng.Intn(5))
			v := logic.Zero
			if rng.Intn(2) == 1 {
				v = logic.One
			}
			assign[pi] = v
		}
		red, err := reduce.Apply(nl, assign)
		if err != nil {
			continue // contradictory draw; try the next trial
		}
		dist := red.DirtyDistances(depth - 1)
		ov := base.Overlay(red, dist)
		fresh := NewBuilder(red, it, depth)

		for _, n := range driven {
			got := ov.Bit(n)
			want := fresh.Bit(n)
			if (got == nil) != (want == nil) {
				t.Fatalf("trial %d net %s: overlay nil=%v fresh nil=%v",
					trial, nl.NetName(n), got == nil, want == nil)
			}
			if got == nil {
				continue
			}
			if got.FullKey != want.FullKey {
				t.Fatalf("trial %d net %s: overlay FullKey %q fresh %q",
					trial, nl.NetName(n), it.String(got.FullKey), it.String(want.FullKey))
			}
			if len(got.Subtrees) != len(want.Subtrees) {
				t.Fatalf("trial %d net %s: subtree count %d vs %d",
					trial, nl.NetName(n), len(got.Subtrees), len(want.Subtrees))
			}
			for i := range got.Subtrees {
				if got.Subtrees[i].Key != want.Subtrees[i].Key {
					t.Fatalf("trial %d net %s subtree %d: %q vs %q", trial, nl.NetName(n), i,
						it.String(got.Subtrees[i].Key), it.String(want.Subtrees[i].Key))
				}
			}
		}
	}
}

// TestOverlayReset re-targets one Overlay across successive trials, as
// tryAssignment does, and checks results stay consistent with fresh builders.
func TestOverlayReset(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nl, driven := randCircuit(rng, 5, 30)
	if err := nl.Validate(); err != nil {
		t.Fatal(err)
	}
	it := NewInterner()
	base := NewBuilder(nl, it, DefaultDepth)
	for _, n := range driven {
		base.Bit(n)
	}
	var ov *Overlay
	for trial := 0; trial < 20; trial++ {
		pi := netlist.NetID(rng.Intn(5))
		v := logic.Zero
		if rng.Intn(2) == 1 {
			v = logic.One
		}
		red, err := reduce.Apply(nl, map[netlist.NetID]logic.Value{pi: v})
		if err != nil {
			continue
		}
		dist := red.DirtyDistances(DefaultDepth - 1)
		if ov == nil {
			ov = base.Overlay(red, dist)
		} else {
			ov.Reset(red, dist)
		}
		fresh := NewBuilder(red, it, DefaultDepth)
		for _, n := range driven {
			got, want := ov.Bit(n), fresh.Bit(n)
			if (got == nil) != (want == nil) {
				t.Fatalf("trial %d net %s: nil mismatch", trial, nl.NetName(n))
			}
			if got != nil && got.FullKey != want.FullKey {
				t.Fatalf("trial %d net %s: FullKey %q vs %q", trial, nl.NetName(n),
					it.String(got.FullKey), it.String(want.FullKey))
			}
		}
	}
}

// TestBuilderReset: a builder and interner reset between analyses — as each
// pipeline worker does between adjacency groups — key every cone exactly as
// a fresh pair does, including after an analysis large enough to grow the
// interner's table and the memo past its kept size.
func TestBuilderReset(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	nl, driven := randCircuit(rng, 6, 400)
	it := NewInterner()
	reused := NewBuilder(nl, it, DefaultDepth)
	for round := 0; round < 6; round++ {
		// Alternate the whole netlist with a handful of nets.
		nets := driven
		if round%2 == 1 {
			nets = driven[rng.Intn(len(driven)-5):][:5]
		}
		it.Reset()
		reused.Reset()
		fresh := NewBuilder(nl, NewInterner(), DefaultDepth)
		for _, n := range nets {
			got, want := reused.Bit(n), fresh.Bit(n)
			if (got == nil) != (want == nil) {
				t.Fatalf("round %d net %s: nil mismatch", round, nl.NetName(n))
			}
			if got != nil && (got.FullKey != want.FullKey || it.String(got.FullKey) != fresh.Interner().String(want.FullKey)) {
				t.Fatalf("round %d net %s: key %d %q, fresh %d %q", round, nl.NetName(n),
					got.FullKey, it.String(got.FullKey), want.FullKey, fresh.Interner().String(want.FullKey))
			}
		}
		if it.Len() != fresh.Interner().Len() {
			t.Fatalf("round %d: %d keys after reset, fresh %d", round, it.Len(), fresh.Interner().Len())
		}
	}
}
