// Package reduce implements circuit reduction under control-signal value
// assignments (DAC'15 §2.5): assigned values are propagated forward and
// backward throughout the netlist until fixpoint; nets with inferred
// constants and gates with determined outputs are removed; gates left with a
// single live input collapse to buffers or inverters.
//
// A Reduction is an overlay implementing netlist.View — the underlying
// netlist is never mutated, so many candidate assignments can be explored
// cheaply. Materialize builds a real simplified netlist when one is needed
// (for example to hand the reduced circuit to another word-identification
// tool, the integration path of §2.1).
package reduce

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"gatewords/internal/logic"
	"gatewords/internal/netlist"
	"gatewords/internal/obs"
)

// Reduction is the result of propagating an assignment through a netlist.
// It implements netlist.View over the simplified circuit.
//
// A Reduction is immutable once Apply returns: the rewritten kind and live
// pins of every affected gate are computed inside Apply, never on read, so
// one Reduction can be shared by concurrent readers (the identification
// pipeline memoizes reductions across adjacency groups and workers).
type Reduction struct {
	nl *netlist.Netlist
	// known and one are bitsets over dense net IDs: bit n of known is set
	// when net n has an inferred constant, and bit n of one then holds it.
	known, one []uint64
	// The rewrites: the effective kind and live pins of every gate that has
	// a constant input and a live output, as parallel arrays sorted by gate
	// ID (pins of rwGates[i] are rwPins[rwOff[i]:rwOff[i+1]]). Every other
	// gate reads through to the netlist. Gates with a constant output are
	// removed from the reduced circuit (DriverOf never returns them), so they
	// need no entry.
	rwGates []netlist.GateID
	rwKinds []logic.Kind
	rwOff   []int32
	rwPins  []netlist.NetID

	// frontier collects, during propagation, every gate visited while its
	// output was unknown: the superset of the gates finish rewrites.
	frontier []frontierGate

	conflict bool
	// ConflictGate names the gate where a contradiction surfaced, for
	// diagnostics; empty when the assignment is feasible.
	ConflictGate string

	// malformed records the first lenient-netlist gate the propagation could
	// not evaluate (invalid arity for its kind); it preempts the generic
	// conflict error.
	malformed error
}

// ErrConflict is returned by Apply when an assignment is infeasible: the
// implied values contradict each other somewhere in the netlist.
var ErrConflict = fmt.Errorf("reduce: assignment is contradictory")

// ErrMalformedGate is returned (wrapped) by Apply and TrySimplifyGate when
// propagation reaches a gate whose arity is invalid for its kind — legal on
// leniently parsed netlists (verilog.ParseLenient), fatal to evaluate.
var ErrMalformedGate = fmt.Errorf("reduce: malformed gate")

// Apply propagates assign through nl and returns the resulting overlay.
// Propagation runs forward (gate inputs determine outputs) and backward
// (known outputs imply inputs, unit-propagation style) to fixpoint. Values
// never cross flip-flops: a constant D input says nothing about the stored
// state in general, and word identification is a combinational analysis.
func Apply(nl *netlist.Netlist, assign map[netlist.NetID]logic.Value) (*Reduction, error) {
	return ApplyObserved(nl, assign, nil)
}

// ApplyObserved is Apply with observability: the propagation's gate-visit
// count and peak worklist depth report into rec (see internal/obs). A nil
// rec records nothing and costs two local integer updates per visit.
func ApplyObserved(nl *netlist.Netlist, assign map[netlist.NetID]logic.Value, rec *obs.Recorder) (*Reduction, error) {
	words := (nl.NetCount() + 63) / 64
	r := &Reduction{
		nl:    nl,
		known: make([]uint64, words),
		one:   make([]uint64, words),
	}
	queue := make([]netlist.NetID, 0, len(assign))
	for n, v := range assign {
		if !v.Known() {
			return nil, fmt.Errorf("reduce: assignment of X to net %q", nl.NetName(n))
		}
		r.set(n, v)
		queue = append(queue, n)
	}
	// The fixpoint is confluent, but the peak-queue-depth gauge reported
	// below is not: canonicalize the map-ordered seeds so observability
	// output is as deterministic as the result.
	sort.Slice(queue, func(i, j int) bool { return queue[i] < queue[j] })
	inbuf := make([]logic.Value, 0, 8)
	visits, maxQueue := int64(0), int64(len(queue))
	for len(queue) > 0 {
		if q := int64(len(queue)); q > maxQueue {
			maxQueue = q
		}
		n := queue[len(queue)-1]
		queue = queue[:len(queue)-1]

		// Forward: every fanout gate may now have a determined output, and
		// a newly known output may backward-imply sibling inputs.
		net := nl.Net(n)
		for _, g := range net.Fanout {
			visits++
			queue = r.visitGate(g, queue, &inbuf)
			if r.conflict {
				rec.Add(obs.CtrReduceGateVisits, visits)
				rec.Max(obs.GaugeReduceQueue, maxQueue)
				return nil, r.propagationError()
			}
		}
		// Backward: the driver of n now has a known output.
		if net.Driver != netlist.NoGate {
			visits++
			queue = r.visitGate(net.Driver, queue, &inbuf)
			if r.conflict {
				rec.Add(obs.CtrReduceGateVisits, visits)
				rec.Max(obs.GaugeReduceQueue, maxQueue)
				return nil, r.propagationError()
			}
		}
	}
	rec.Add(obs.CtrReduceGateVisits, visits)
	rec.Max(obs.GaugeReduceQueue, maxQueue)
	r.finish()
	return r, nil
}

// frontierGate is a gate visited with an unknown output, and that output.
type frontierGate struct {
	g   netlist.GateID
	out netlist.NetID
}

// finish freezes a feasible reduction: it computes the rewrite of every
// live gate reading a constant, in ascending gate order. Every such gate is
// on the frontier: propagation visited it when its constant input became
// known, and its output, unknown at the end, was unknown then too.
func (r *Reduction) finish() {
	live := make([]uint64, (r.nl.GateCount()+63)/64)
	for _, f := range r.frontier {
		if !r.isKnown(f.out) {
			live[f.g>>6] |= 1 << (uint(f.g) & 63)
		}
	}
	r.frontier = nil
	r.rwOff = []int32{0}
	for w, word := range live {
		for ; word != 0; word &= word - 1 {
			g := netlist.GateID(w*64 + bits.TrailingZeros64(word))
			gate := r.nl.Gate(g)
			var kind logic.Kind
			kind, r.rwPins, _ = appendSimplified(r.rwPins, gate.Kind, gate.Inputs, r.Value)
			r.rwGates = append(r.rwGates, g)
			r.rwKinds = append(r.rwKinds, kind)
			r.rwOff = append(r.rwOff, int32(len(r.rwPins)))
		}
	}
}

// eachKnown calls fn for every net with an inferred constant, in ascending
// ID order.
func (r *Reduction) eachKnown(fn func(netlist.NetID)) {
	for w, word := range r.known {
		for word != 0 {
			fn(netlist.NetID(w*64 + bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
}

// rewriteOf returns the index of g's rewrite, or -1 when g reads through.
func (r *Reduction) rewriteOf(g netlist.GateID) int {
	if i, ok := slices.BinarySearch(r.rwGates, g); ok {
		return i
	}
	return -1
}

// propagationError renders the reason propagation aborted: the malformed
// gate if one was hit, else the assignment conflict.
func (r *Reduction) propagationError() error {
	if r.malformed != nil {
		return r.malformed
	}
	return fmt.Errorf("%w (at gate %q)", ErrConflict, r.ConflictGate)
}

// isKnown reports whether net n has an inferred constant.
func (r *Reduction) isKnown(n netlist.NetID) bool {
	return r.known[n>>6]&(1<<(uint(n)&63)) != 0
}

// set records the constant v (0 or 1) for net n.
func (r *Reduction) set(n netlist.NetID, v logic.Value) {
	bit := uint64(1) << (uint(n) & 63)
	r.known[n>>6] |= bit
	if v == logic.One {
		r.one[n>>6] |= bit
	}
}

// visitGate re-evaluates one gate against current knowledge, performing both
// forward evaluation and backward implication, and enqueues any nets whose
// values become known.
func (r *Reduction) visitGate(g netlist.GateID, queue []netlist.NetID, inbuf *[]logic.Value) []netlist.NetID {
	gate := r.nl.Gate(g)
	if gate.Kind == logic.DFF {
		return queue // constants do not cross sequential elements
	}
	in := (*inbuf)[:0]
	for _, id := range gate.Inputs {
		in = append(in, r.Value(id))
	}
	*inbuf = in

	// Forward. A leniently parsed netlist can contain a gate whose arity is
	// invalid for its kind; surface it as an explicit error instead of
	// letting logic.Eval panic. The early return also shields the backward
	// implication below, which indexes pins by fixed arity.
	out, evalErr := logic.TryEval(gate.Kind, in)
	if evalErr != nil {
		r.conflict = true
		r.ConflictGate = gate.Name
		r.malformed = fmt.Errorf("%w %q: %v", ErrMalformedGate, gate.Name, evalErr)
		return queue
	}
	cur := r.Value(gate.Output)
	if out.Known() {
		if cur.Known() && cur != out {
			r.conflict = true
			r.ConflictGate = gate.Name
			return queue
		}
		if !cur.Known() {
			r.set(gate.Output, out)
			queue = append(queue, gate.Output)
			cur = out
		}
	}

	if !cur.Known() {
		// Nothing to imply backward; the gate may need a rewrite.
		r.frontier = append(r.frontier, frontierGate{g: g, out: gate.Output})
		return queue
	}

	// Backward.
	newly, bad := logic.ImplyInputs(gate.Kind, cur, in)
	if bad {
		r.conflict = true
		r.ConflictGate = gate.Name
		return queue
	}
	if newly > 0 {
		for i, id := range gate.Inputs {
			if in[i].Known() && !r.isKnown(id) {
				r.set(id, in[i])
				queue = append(queue, id)
			}
		}
	}
	return queue
}

// Value returns the inferred constant for a net (X if the net is live).
func (r *Reduction) Value(n netlist.NetID) logic.Value {
	bit := uint64(1) << (uint(n) & 63)
	switch {
	case r.known[n>>6]&bit == 0:
		return logic.X
	case r.one[n>>6]&bit != 0:
		return logic.One
	default:
		return logic.Zero
	}
}

// Bytes estimates the memory the reduction retains, for callers that cache
// reductions under a memory bound.
func (r *Reduction) Bytes() int {
	return 8*(cap(r.known)+cap(r.one)) + 4*cap(r.rwGates) + cap(r.rwKinds) + 4*cap(r.rwOff) + 4*cap(r.rwPins)
}

// DirtyDistances returns, for every net lying within maxDist fanin levels
// of a net the reduction changed, the minimum number of driver (fanin)
// steps from that net down to a changed net; changed nets themselves map to
// 0. A structural subtree (net, depth) renders identically on the original
// and reduced circuits exactly when no changed net is within depth levels
// of its root, so cone.Overlay uses these distances to decide which subtree
// keys can be reused from the unreduced builder's memo.
//
// The walk is a level-order BFS downstream over fanout edges, bounded to
// maxDist levels; it stops at sequential cells, whose outputs are structural
// leaves regardless of their inputs (and whose values the propagation never
// crosses either).
func (r *Reduction) DirtyDistances(maxDist int) *netlist.NetMarks {
	dist := netlist.NewNetMarks(r.nl.NetCount())
	r.eachKnown(func(n netlist.NetID) { dist.Set(n, 0) })
	r.dirtyWalk(nil, maxDist, dist)
	return dist
}

// DirtyDistancesIn is DirtyDistances restricted to a scope (typically the
// union of a subgroup's fanin-cone nets), written into dist, which is
// cleared first: seeds are the changed nets inside scope, and the walk never
// leaves it. Cost is O(|scope|) regardless of how far the reduction
// propagated — the property that makes per-trial incremental re-keying
// cheaper than re-deriving a subgroup's keys from scratch even when an
// assignment constant-folds a large region. Both sets are indexed by this
// reduction's netlist IDs, and reusing them across calls allocates nothing.
//
// The restriction is sound for cone.Overlay whenever scope is fanin-closed
// over the keyed subtrees (every net within cone depth of a keyed root is in
// scope): any fanin path from a keyed net to a changed net then lies wholly
// inside scope, so the restricted walk assigns the same distances the global
// walk would.
func (r *Reduction) DirtyDistancesIn(scope *netlist.NetMarks, maxDist int, dist *netlist.NetMarks) {
	dist.Clear()
	for _, n := range scope.Nets() {
		if r.isKnown(n) {
			dist.Set(n, 0)
		}
	}
	r.dirtyWalk(scope, maxDist, dist)
}

// dirtyWalk extends dist, seeded with the changed nets at distance 0, by a
// level-order BFS over fanout edges. dist's insertion order is the BFS
// queue. A nil scope walks the whole netlist.
func (r *Reduction) dirtyWalk(scope *netlist.NetMarks, maxDist int, dist *netlist.NetMarks) {
	for i := 0; i < dist.Len(); i++ {
		n := dist.Nets()[i]
		d, _ := dist.Get(n)
		if d >= maxDist {
			break // level order: every later net is at least this far
		}
		for _, g := range r.nl.Net(n).Fanout {
			gate := r.nl.Gate(g)
			if !gate.Kind.IsCombinational() || dist.Has(gate.Output) {
				continue
			}
			if scope != nil && !scope.Has(gate.Output) {
				continue
			}
			dist.Set(gate.Output, d+1)
		}
	}
}

// AssignedCount returns the number of nets with inferred constants.
func (r *Reduction) AssignedCount() int {
	c := 0
	for _, w := range r.known {
		c += bits.OnesCount64(w)
	}
	return c
}

// RemovedGateCount returns the number of combinational gates whose output
// became constant (and which therefore disappear from the reduced circuit).
func (r *Reduction) RemovedGateCount() int {
	c := 0
	for gi := 0; gi < r.nl.GateCount(); gi++ {
		g := r.nl.Gate(netlist.GateID(gi))
		if g.Kind != logic.DFF && r.isKnown(g.Output) {
			c++
		}
	}
	return c
}

// --- netlist.View implementation -------------------------------------------

// NetConst implements netlist.View.
func (r *Reduction) NetConst(n netlist.NetID) (logic.Value, bool) {
	v := r.Value(n)
	return v, v.Known()
}

// DriverOf implements netlist.View: constant nets and outputs of removed
// gates have no driver in the reduced circuit.
func (r *Reduction) DriverOf(n netlist.NetID) netlist.GateID {
	if r.isKnown(n) {
		return netlist.NoGate
	}
	return r.nl.Net(n).Driver
}

// GateKind implements netlist.View, reporting the rewritten kind (e.g. a
// NAND reduced to a single live input reports NOT).
func (r *Reduction) GateKind(g netlist.GateID) logic.Kind {
	if i := r.rewriteOf(g); i >= 0 {
		return r.rwKinds[i]
	}
	return r.nl.Gate(g).Kind
}

// GateInputs implements netlist.View, returning only the live input pins of
// the rewritten gate.
func (r *Reduction) GateInputs(g netlist.GateID, buf []netlist.NetID) []netlist.NetID {
	if i := r.rewriteOf(g); i >= 0 {
		return append(buf, r.rwPins[r.rwOff[i]:r.rwOff[i+1]]...)
	}
	return append(buf, r.nl.Gate(g).Inputs...)
}

var _ netlist.View = (*Reduction)(nil)
