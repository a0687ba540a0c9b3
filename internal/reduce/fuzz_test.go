package reduce

import (
	"errors"
	"fmt"
	"testing"

	"gatewords/internal/logic"
	"gatewords/internal/netlist"
)

// byteSource deals bytes from the fuzz input, repeating 0 when exhausted.
type byteSource struct {
	data []byte
	pos  int
}

func (b *byteSource) pick(n int) int {
	if b.pos >= len(b.data) || n <= 0 {
		return 0
	}
	v := b.data[b.pos]
	b.pos++
	return int(v) % n
}

// fuzzCircuit builds an acyclic netlist from the byte stream: every gate
// reads already-driven nets, so gate order is a topological order. Primary
// inputs and flip-flop outputs are the free variables — propagation never
// crosses a flip-flop, so its output is as unconstrained as an input — and
// there are at most ten of them.
func fuzzCircuit(src *byteSource) (nl *netlist.Netlist, free []netlist.NetID) {
	nl = netlist.New("fuzz")
	var pool []netlist.NetID
	for i := 0; i < 1+src.pick(6); i++ {
		id := nl.MustNet(fmt.Sprintf("i%d", i))
		nl.MarkPI(id)
		pool = append(pool, id)
		free = append(free, id)
	}
	kinds := logic.CombinationalKinds()
	for i := 0; i < 1+src.pick(16); i++ {
		out := nl.MustNet(fmt.Sprintf("n%d", i))
		if len(free) < 10 && src.pick(8) == 0 {
			nl.MustGate(fmt.Sprintf("g%d", i), logic.DFF, out, pool[src.pick(len(pool))])
			free = append(free, out)
		} else {
			k := kinds[src.pick(len(kinds))]
			arity, fixed := k.FixedArity()
			if !fixed {
				arity = 2 + src.pick(2)
			}
			ins := make([]netlist.NetID, arity)
			for j := range ins {
				ins[j] = pool[src.pick(len(pool))]
			}
			nl.MustGate(fmt.Sprintf("g%d", i), k, out, ins...)
		}
		pool = append(pool, out)
	}
	return nl, free
}

// simulate evaluates nl under one completion of the free variables (bit j
// of completion sets free[j]) and returns every net's value.
func simulate(nl *netlist.Netlist, free []netlist.NetID, completion int) []logic.Value {
	vals := make([]logic.Value, nl.NetCount())
	for j, n := range free {
		vals[n] = logic.FromBool(completion>>j&1 == 1)
	}
	var in []logic.Value
	for gi := 0; gi < nl.GateCount(); gi++ {
		g := nl.Gate(netlist.GateID(gi))
		if g.Kind == logic.DFF {
			continue
		}
		in = in[:0]
		for _, n := range g.Inputs {
			in = append(in, vals[n])
		}
		vals[g.Output] = logic.Eval(g.Kind, in)
	}
	return vals
}

// FuzzReduce checks Apply against brute-force enumeration on random small
// netlists: every constant Apply infers must hold in every completion of
// the free variables consistent with the assignment, every rewritten gate
// must compute its output from its live pins in those completions, and a
// reported conflict must mean that no consistent completion exists. The
// oracle is enumeration, not a second propagation engine.
func FuzzReduce(f *testing.F) {
	f.Add([]byte{3, 6, 2, 1, 0, 1, 2, 3, 4, 5, 6, 7, 1, 0, 1})
	f.Add([]byte{5, 12, 0, 9, 4, 1, 2, 0, 3, 3, 8, 1, 2, 0, 1, 7, 6, 2, 2, 1, 0})
	f.Add([]byte{1, 15, 8, 10, 0, 1, 1, 2, 7, 0, 3, 0, 2, 11, 4, 5, 9, 1, 0, 0, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		src := &byteSource{data: data}
		nl, free := fuzzCircuit(src)
		assign := map[netlist.NetID]logic.Value{}
		for i := 0; i < 1+src.pick(3); i++ {
			assign[netlist.NetID(src.pick(nl.NetCount()))] = logic.FromBool(src.pick(2) == 1)
		}

		var consistent [][]logic.Value
		for c := 0; c < 1<<len(free); c++ {
			vals := simulate(nl, free, c)
			ok := true
			for n, v := range assign {
				ok = ok && vals[n] == v
			}
			if ok {
				consistent = append(consistent, vals)
			}
		}

		red, err := Apply(nl, assign)
		if err != nil {
			if !errors.Is(err, ErrConflict) {
				t.Fatalf("Apply(%v): unexpected error %v", assign, err)
			}
			if len(consistent) > 0 {
				t.Fatalf("Apply(%v) reported %v, but %d completions are consistent", assign, err, len(consistent))
			}
			return
		}
		var in []logic.Value
		for _, vals := range consistent {
			for n := 0; n < nl.NetCount(); n++ {
				if v := red.Value(netlist.NetID(n)); v.Known() && vals[n] != v {
					t.Fatalf("Apply(%v) infers %s=%v, but a consistent completion has %v",
						assign, nl.NetName(netlist.NetID(n)), v, vals[n])
				}
			}
			for gi := 0; gi < nl.GateCount(); gi++ {
				g := nl.Gate(netlist.GateID(gi))
				if g.Kind == logic.DFF || red.DriverOf(g.Output) == netlist.NoGate {
					continue
				}
				in = in[:0]
				for _, n := range red.GateInputs(netlist.GateID(gi), nil) {
					in = append(in, vals[n])
				}
				if got := logic.Eval(red.GateKind(netlist.GateID(gi)), in); got != vals[g.Output] {
					t.Fatalf("Apply(%v): rewritten %s (%v) computes %v, original %v",
						assign, g.Name, red.GateKind(netlist.GateID(gi)), got, vals[g.Output])
				}
			}
		}
	})
}
