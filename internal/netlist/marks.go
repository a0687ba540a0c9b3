package netlist

// NetMarks is a reusable map from NetID to a small non-negative integer,
// backed by arrays indexed by the netlist's dense net IDs. Clear is O(1): it
// bumps a generation stamp instead of zeroing the arrays, so one NetMarks
// serves thousands of short-lived sets (one per subgroup, one per trial)
// over the same netlist without reallocating or rehashing.
//
// Create one with NewNetMarks, sized for a netlist's NetCount. A NetMarks is
// not goroutine-safe.
type NetMarks struct {
	gen   uint32
	stamp []uint32 // stamp[n] == gen marks n present
	val   []int32
	nets  []NetID // present nets, in insertion order
}

// NewNetMarks returns an empty NetMarks over net IDs [0, n).
func NewNetMarks(n int) *NetMarks {
	return &NetMarks{gen: 1, stamp: make([]uint32, n), val: make([]int32, n)}
}

// Clear empties the set in O(1), keeping its storage.
func (m *NetMarks) Clear() {
	m.nets = m.nets[:0]
	m.gen++
	if m.gen == 0 {
		// The stamp wrapped: old stamps could alias the new generation.
		clear(m.stamp)
		m.gen = 1
	}
}

// Set maps n to v, adding n if absent.
func (m *NetMarks) Set(n NetID, v int) {
	if m.stamp[n] != m.gen {
		m.stamp[n] = m.gen
		m.nets = append(m.nets, n)
	}
	m.val[n] = int32(v)
}

// Add inserts n with value 0 and reports whether it was absent. A present
// net keeps its value.
func (m *NetMarks) Add(n NetID) bool {
	if m.stamp[n] == m.gen {
		return false
	}
	m.Set(n, 0)
	return true
}

// Has reports whether n is present.
func (m *NetMarks) Has(n NetID) bool { return m.stamp[n] == m.gen }

// Get returns n's value and whether n is present.
func (m *NetMarks) Get(n NetID) (int, bool) {
	if m.stamp[n] != m.gen {
		return 0, false
	}
	return int(m.val[n]), true
}

// Len returns the number of present nets.
func (m *NetMarks) Len() int { return len(m.nets) }

// Nets returns the present nets in insertion order. The slice is owned by
// the set and valid until the next Set, Add or Clear.
func (m *NetMarks) Nets() []NetID { return m.nets }
