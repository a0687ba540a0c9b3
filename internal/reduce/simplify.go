package reduce

import (
	"fmt"

	"gatewords/internal/logic"
	"gatewords/internal/netlist"
)

// TrySimplifyGate is the non-panicking form of SimplifyGate for leniently
// parsed netlists: a combinational gate whose pin count is invalid for its
// kind — which logic.Eval inside SimplifyGate would panic on — is reported
// as an ErrMalformedGate error instead. The rewrite cascade only ever
// constructs valid arities, so the upfront check covers the recursion.
func TrySimplifyGate(k logic.Kind, ins []netlist.NetID, val func(netlist.NetID) logic.Value) (logic.Kind, []netlist.NetID, logic.Value, error) {
	if k != logic.DFF && !k.ValidArity(len(ins)) {
		return k, nil, logic.X, fmt.Errorf("%w: %s gate with %d inputs", ErrMalformedGate, k, len(ins))
	}
	kk, eff, out := SimplifyGate(k, ins, val)
	return kk, eff, out, nil
}

// SimplifyGate computes the rewritten form of one gate given per-net
// constant knowledge. It returns the effective kind, the effective input
// pins, and — when the known inputs determine the output — the constant
// output value (logic.X otherwise, in which case the kind/pins describe the
// surviving gate).
//
// Rewrites follow §2.5: known non-controlling inputs of AND/OR/NAND/NOR are
// dropped; a gate left with a single input becomes a buffer or inverter;
// known inputs of parity gates flip XOR<->XNOR; a mux with a known select
// becomes a buffer; AOI21/OAI21 decay into their NAND/NOR/NOT residues. A
// MUX2 with an unknown select and exactly one known data pin keeps all three
// pins (the constant pin renders as a leaf in structural keys); rewriting it
// to AND/OR residues would require synthesizing new inverters, which an
// overlay cannot do.
func SimplifyGate(k logic.Kind, ins []netlist.NetID, val func(netlist.NetID) logic.Value) (logic.Kind, []netlist.NetID, logic.Value) {
	return appendSimplified(nil, k, ins, val)
}

// appendSimplified is SimplifyGate appending the effective input pins to
// dst and returning the extended slice, so a caller collecting many
// rewrites (Apply) keeps them in one arena. A rewrite to a smaller gate
// recurses so cascaded knowledge (e.g. AOI21 with c=0 and a=1) fully
// collapses.
func appendSimplified(dst []netlist.NetID, k logic.Kind, ins []netlist.NetID, val func(netlist.NetID) logic.Value) (logic.Kind, []netlist.NetID, logic.Value) {
	if k == logic.DFF {
		return logic.DFF, append(dst, ins...), logic.X
	}
	var small [4]logic.Value
	vals := small[:0]
	if len(ins) > len(small) {
		vals = make([]logic.Value, 0, len(ins))
	}
	vals = vals[:len(ins)]
	anyKnown := false
	for i, id := range ins {
		vals[i] = val(id)
		if vals[i].Known() {
			anyKnown = true
		}
	}
	out := logic.Eval(k, vals)
	if out.Known() {
		return k, dst, out
	}
	if !anyKnown {
		return k, append(dst, ins...), logic.X
	}

	switch k {
	case logic.Buf, logic.Not:
		// Input unknown (otherwise the output would be known).
		return k, append(dst, ins...), logic.X

	case logic.And, logic.Or, logic.Nand, logic.Nor:
		live := appendLive(dst, ins, vals)
		if len(live)-len(dst) == 1 {
			switch k {
			case logic.And, logic.Or:
				return logic.Buf, live, logic.X
			default:
				return logic.Not, live, logic.X
			}
		}
		return k, live, logic.X

	case logic.Xor, logic.Xnor:
		live := appendLive(dst, ins, vals)
		kk := k
		for _, v := range vals {
			if v == logic.One {
				if kk == logic.Xor {
					kk = logic.Xnor
				} else {
					kk = logic.Xor
				}
			}
		}
		if len(live)-len(dst) == 1 {
			if kk == logic.Xor {
				return logic.Buf, live, logic.X
			}
			return logic.Not, live, logic.X
		}
		return kk, live, logic.X

	case logic.Mux2:
		sel, a, b := ins[0], ins[1], ins[2]
		vs, va, vb := vals[0], vals[1], vals[2]
		switch vs {
		case logic.Zero:
			return appendSimplified(dst, logic.Buf, []netlist.NetID{a}, val)
		case logic.One:
			return appendSimplified(dst, logic.Buf, []netlist.NetID{b}, val)
		}
		if va.Known() && vb.Known() {
			// va != vb, otherwise the output would be known.
			if va == logic.Zero {
				return logic.Buf, append(dst, sel), logic.X
			}
			return logic.Not, append(dst, sel), logic.X
		}
		return logic.Mux2, append(dst, ins...), logic.X

	case logic.Aoi21: // !((a&b) | c)
		a, b, c := ins[0], ins[1], ins[2]
		va, vb, vc := vals[0], vals[1], vals[2]
		switch {
		case vc == logic.Zero:
			return appendSimplified(dst, logic.Nand, []netlist.NetID{a, b}, val)
		case va == logic.One:
			return appendSimplified(dst, logic.Nor, []netlist.NetID{b, c}, val)
		case vb == logic.One:
			return appendSimplified(dst, logic.Nor, []netlist.NetID{a, c}, val)
		case va == logic.Zero || vb == logic.Zero:
			return appendSimplified(dst, logic.Not, []netlist.NetID{c}, val)
		}
		return logic.Aoi21, append(dst, ins...), logic.X

	case logic.Oai21: // !((a|b) & c)
		a, b, c := ins[0], ins[1], ins[2]
		va, vb, vc := vals[0], vals[1], vals[2]
		switch {
		case vc == logic.One:
			return appendSimplified(dst, logic.Nor, []netlist.NetID{a, b}, val)
		case va == logic.Zero:
			return appendSimplified(dst, logic.Nand, []netlist.NetID{b, c}, val)
		case vb == logic.Zero:
			return appendSimplified(dst, logic.Nand, []netlist.NetID{a, c}, val)
		case va == logic.One || vb == logic.One:
			return appendSimplified(dst, logic.Not, []netlist.NetID{c}, val)
		}
		return logic.Oai21, append(dst, ins...), logic.X
	}
	return k, append(dst, ins...), logic.X
}

// appendLive appends the pins of ins whose values are unknown to dst.
func appendLive(dst, ins []netlist.NetID, vals []logic.Value) []netlist.NetID {
	for i, id := range ins {
		if !vals[i].Known() {
			dst = append(dst, id)
		}
	}
	return dst
}
