package netlist

import (
	"slices"
	"testing"
)

func TestNetMarks(t *testing.T) {
	m := NewNetMarks(8)
	if !m.Add(3) || m.Add(3) {
		t.Fatal("Add must report only the first insertion")
	}
	m.Set(5, 2)
	m.Set(3, 7)
	if v, ok := m.Get(3); !ok || v != 7 {
		t.Errorf("Get(3) = %d, %v; want 7, true", v, ok)
	}
	if _, ok := m.Get(4); ok || m.Has(4) {
		t.Error("absent net reported present")
	}
	if !slices.Equal(m.Nets(), []NetID{3, 5}) || m.Len() != 2 {
		t.Errorf("Nets = %v, want insertion order [3 5]", m.Nets())
	}
	m.Clear()
	if m.Len() != 0 || m.Has(3) || m.Has(5) {
		t.Fatal("Clear left nets behind")
	}
	// A wrapped generation stamp must not resurrect stale marks.
	m.Set(1, 1)
	m.gen = ^uint32(0)
	m.stamp[2] = m.gen
	m.Clear()
	if m.Has(1) || m.Has(2) || m.Len() != 0 {
		t.Error("stale marks visible after the stamp wrapped")
	}
}
