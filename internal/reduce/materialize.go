package reduce

import (
	"fmt"

	"gatewords/internal/logic"
	"gatewords/internal/netlist"
)

// Materialized is a real, stand-alone simplified netlist built from a
// Reduction overlay. It is what gets handed to other reverse-engineering
// tools (the integration path of §2.1) or written back out as Verilog.
type Materialized struct {
	NL *netlist.Netlist
	// Const0 and Const1 are tie-off nets (marked as primary inputs) created
	// on demand for constant pins that survive structurally, such as the
	// known data pin of a mux with an unknown select. NoNet when unused.
	Const0 netlist.NetID
	Const1 netlist.NetID
	// NetMap maps original net IDs to their IDs in NL (absent if removed).
	NetMap map[netlist.NetID]netlist.NetID
}

// Materialize builds the simplified netlist described by the overlay:
// constant nets and dead gates are gone, surviving gates appear in original
// file order with their rewritten kinds and live pins.
func Materialize(r *Reduction) (*Materialized, error) {
	src := r.nl
	m := &Materialized{
		NL:     netlist.New(src.Name + "_reduced"),
		Const0: netlist.NoNet,
		Const1: netlist.NoNet,
		NetMap: make(map[netlist.NetID]netlist.NetID),
	}
	// Nets first, preserving ID order so gate emission can look them up.
	for ni := 0; ni < src.NetCount(); ni++ {
		id := netlist.NetID(ni)
		if r.isKnown(id) {
			continue
		}
		n := src.Net(id)
		nid, err := m.NL.AddNet(n.Name)
		if err != nil {
			return nil, err
		}
		if n.IsPI {
			m.NL.MarkPI(nid)
		}
		if n.IsPO {
			m.NL.MarkPO(nid)
		}
		m.NetMap[id] = nid
	}
	tie := func(v logic.Value) netlist.NetID {
		switch v {
		case logic.Zero:
			if m.Const0 == netlist.NoNet {
				m.Const0 = m.NL.MustNet("$const0")
				m.NL.MarkPI(m.Const0)
			}
			return m.Const0
		default:
			if m.Const1 == netlist.NoNet {
				m.Const1 = m.NL.MustNet("$const1")
				m.NL.MarkPI(m.Const1)
			}
			return m.Const1
		}
	}
	for gi := 0; gi < src.GateCount(); gi++ {
		id := netlist.GateID(gi)
		g := src.Gate(id)
		if g.Kind != logic.DFF && r.isKnown(g.Output) {
			continue // dead gate
		}
		kind, pins, constOut, err := TrySimplifyGate(g.Kind, g.Inputs, func(n netlist.NetID) logic.Value {
			return r.Value(n)
		})
		if err != nil {
			return nil, fmt.Errorf("reduce: materializing gate %q: %w", g.Name, err)
		}
		if constOut.Known() {
			continue // defensive; covered by the vals check above
		}
		newPins := make([]netlist.NetID, len(pins))
		for i, p := range pins {
			if v := r.Value(p); v.Known() {
				newPins[i] = tie(v)
				continue
			}
			mapped, ok := m.NetMap[p]
			if !ok {
				return nil, fmt.Errorf("reduce: live pin %q of gate %q lost during materialization", src.NetName(p), g.Name)
			}
			newPins[i] = mapped
		}
		out, ok := m.NetMap[g.Output]
		if !ok {
			return nil, fmt.Errorf("reduce: live output %q of gate %q lost during materialization", src.NetName(g.Output), g.Name)
		}
		if _, err := m.NL.AddGate(g.Name, kind, out, newPins...); err != nil {
			return nil, err
		}
	}
	if err := m.NL.Validate(); err != nil {
		return nil, fmt.Errorf("reduce: materialized netlist invalid: %w", err)
	}
	return m, nil
}
