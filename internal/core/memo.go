package core

import (
	"sync"

	"gatewords/internal/guard"
	"gatewords/internal/logic"
	"gatewords/internal/netlist"
	"gatewords/internal/obs"
	"gatewords/internal/reduce"
)

// reductionMemo shares constant propagation across the adjacency groups of
// one Identify call. Different groups often try the same control assignment
// (a reset or enable line feeds many words), and the reduction depends only
// on the assignment, so each distinct assignment is propagated once and its
// immutable *reduce.Reduction — or its conflict error — is reused by every
// later trial.
//
// Lookups are single-flight: the first trial of an assignment (the leader)
// propagates it while concurrent trials of the same assignment wait for the
// result, so every key runs exactly once at any worker count and the merged
// reduce_gate_visits / reduce_memo_hits counters match the sequential run.
// A leader that panics takes only its own group down: its entry is removed
// before the panic continues, and each waiter retries, leading a fresh
// propagation itself.
//
// Retained memory is bounded by a budget derived from the netlist's size.
// Once the cached reductions reach it, trials of new assignments propagate
// uncached. Counter equality across worker counts holds while the memo is
// under its budget: past it, which assignments got cached depends on
// scheduling.
type reductionMemo struct {
	nl     *netlist.Netlist
	mu     sync.Mutex
	calls  map[assignKey]*memoCall
	bytes  int
	budget int
}

// memoBytesPerElement sets the memo budget: this many bytes per net and per
// gate of the netlist, a few times the netlist's own footprint.
const memoBytesPerElement = 64

// assignKey is an assignment in canonical form: its (net, value) pairs in
// ascending net order, unused slots NoNet. Options.MaxAssign caps
// assignments at three signals.
type assignKey [3]assignPair

type assignPair struct {
	net netlist.NetID
	val logic.Value
}

// memoCall is one assignment's propagation. red and err are written by the
// leader before done is closed and never after.
type memoCall struct {
	done chan struct{}
	red  *reduce.Reduction
	err  error
	ok   bool // the leader finished; false after a leader panic
}

func newReductionMemo(nl *netlist.Netlist) *reductionMemo {
	return &reductionMemo{
		nl:     nl,
		calls:  make(map[assignKey]*memoCall),
		budget: memoBytesPerElement * (nl.NetCount() + nl.GateCount()),
	}
}

func canonicalKey(assign map[netlist.NetID]logic.Value) assignKey {
	var k assignKey
	for i := range k {
		k[i].net = netlist.NoNet
	}
	i := 0
	for n, v := range assign {
		k[i] = assignPair{net: n, val: v}
		i++
	}
	// Insertion sort: at most three pairs, and no closure allocation.
	for a := 1; a < i; a++ {
		for b := a; b > 0 && k[b].net < k[b-1].net; b-- {
			k[b], k[b-1] = k[b-1], k[b]
		}
	}
	return k
}

// apply returns the reduction of assign, propagating it only if no earlier
// trial of this Identify call did. Propagation work records into rec (the
// calling group's recorder); a trial served from the memo counts one
// reduce_memo_hits instead. group is the caller's adjacency group, the
// "reduce" fault-injection point's group.
func (m *reductionMemo) apply(assign map[netlist.NetID]logic.Value, rec *obs.Recorder, group int) (*reduce.Reduction, error) {
	key := canonicalKey(assign)
	c, lead := m.lookup(key)
	switch {
	case c == nil:
		return reduce.ApplyObserved(m.nl, assign, rec)
	case lead:
		return m.lead(key, c, assign, rec, group)
	}
	rec.Add(obs.CtrReduceMemoHits, 1)
	return c.red, c.err
}

// lookup returns the finished call for key, waiting for an in-flight one;
// or a new call the caller must lead (lead true); or nil when key is absent
// and the memo is over budget.
func (m *reductionMemo) lookup(key assignKey) (c *memoCall, lead bool) {
	for {
		m.mu.Lock()
		c, found := m.calls[key]
		if !found {
			if m.bytes >= m.budget {
				m.mu.Unlock()
				return nil, false
			}
			c = &memoCall{done: make(chan struct{})}
			m.calls[key] = c
			m.mu.Unlock()
			return c, true
		}
		m.mu.Unlock()
		<-c.done
		if c.ok {
			return c, false
		}
		// The leader panicked and withdrew the entry: retry, leading a
		// fresh propagation unless another waiter already does.
	}
}

// lead propagates assign for the waiters of c. If the propagation panics,
// the deferred cleanup withdraws c and releases its waiters before the
// panic continues to the caller's group boundary.
func (m *reductionMemo) lead(key assignKey, c *memoCall, assign map[netlist.NetID]logic.Value, rec *obs.Recorder, group int) (*reduce.Reduction, error) {
	finished := false
	defer func() {
		if !finished {
			m.mu.Lock()
			delete(m.calls, key)
			m.mu.Unlock()
			close(c.done)
		}
	}()
	guard.Inject("reduce", group)
	red, err := reduce.ApplyObserved(m.nl, assign, rec)
	size := 0
	if red != nil {
		size = red.Bytes()
	}
	m.mu.Lock()
	c.red, c.err, c.ok = red, err, true
	m.bytes += size
	m.mu.Unlock()
	finished = true
	close(c.done)
	return c.red, c.err
}
