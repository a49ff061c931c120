package cover

import (
	"testing"
	"testing/quick"
)

func TestNewDomain(t *testing.T) {
	for _, bits := range []uint8{0, 1, 10, MaxBits} {
		d, err := NewDomain(bits)
		if err != nil {
			t.Fatalf("NewDomain(%d): %v", bits, err)
		}
		if got := d.Size(); got != 1<<bits {
			t.Errorf("Size() = %d, want %d", got, uint64(1)<<bits)
		}
	}
	if _, err := NewDomain(MaxBits + 1); err == nil {
		t.Error("NewDomain(MaxBits+1) succeeded, want error")
	}
}

func TestFitDomain(t *testing.T) {
	cases := []struct {
		max  uint64
		bits uint8
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{255, 8}, {256, 9}, {1 << 20, 21},
	}
	for _, c := range cases {
		d := FitDomain(c.max)
		if d.Bits != c.bits {
			t.Errorf("FitDomain(%d).Bits = %d, want %d", c.max, d.Bits, c.bits)
		}
		if !d.Contains(c.max) {
			t.Errorf("FitDomain(%d) does not contain %d", c.max, c.max)
		}
	}
}

func TestDomainContains(t *testing.T) {
	d := Domain{Bits: 3}
	if !d.Contains(0) || !d.Contains(7) {
		t.Error("domain should contain 0 and 7")
	}
	if d.Contains(8) {
		t.Error("domain should not contain 8")
	}
}

func TestDomainCheckRange(t *testing.T) {
	d := Domain{Bits: 3}
	if err := d.CheckRange(2, 7); err != nil {
		t.Errorf("CheckRange(2,7): %v", err)
	}
	if err := d.CheckRange(5, 4); err == nil {
		t.Error("CheckRange(5,4) should fail")
	}
	if err := d.CheckRange(0, 8); err == nil {
		t.Error("CheckRange(0,8) should fail on 3-bit domain")
	}
}

func TestNodeBasics(t *testing.T) {
	n := Node{Level: 2, Start: 4}
	if n.Size() != 4 {
		t.Errorf("Size = %d, want 4", n.Size())
	}
	if n.End() != 7 {
		t.Errorf("End = %d, want 7", n.End())
	}
	if !n.Contains(4) || !n.Contains(7) || n.Contains(3) || n.Contains(8) {
		t.Error("Contains is wrong at the node boundaries")
	}
	if !n.ContainsRange(5, 6) || n.ContainsRange(5, 8) {
		t.Error("ContainsRange is wrong")
	}
	if got := n.String(); got != "N4,7" {
		t.Errorf("String = %q, want N4,7", got)
	}
	if got := (Node{Level: 0, Start: 6}).String(); got != "N6" {
		t.Errorf("leaf String = %q, want N6", got)
	}
}

func TestNodeChildren(t *testing.T) {
	l, r := (Node{Level: 2, Start: 4}).Children()
	if l != (Node{Level: 1, Start: 4}) || r != (Node{Level: 1, Start: 6}) {
		t.Errorf("Children = %v, %v", l, r)
	}
	defer func() {
		if recover() == nil {
			t.Error("leaf Children should panic")
		}
	}()
	(Node{Level: 0, Start: 1}).Children()
}

func TestNodeLabelRoundtrip(t *testing.T) {
	f := func(level uint8, start uint64) bool {
		n := Node{Level: level, Start: start}
		return NodeFromLabel(n.Label()) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNodeLabelUnique(t *testing.T) {
	seen := make(map[string]Node)
	d := Domain{Bits: 6}
	for l := uint8(0); l <= d.Bits; l++ {
		for start := uint64(0); start+(uint64(1)<<l) <= d.Size(); start += 1 << l {
			n := Node{Level: l, Start: start}
			k := n.Keyword()
			if prev, dup := seen[k]; dup {
				t.Fatalf("label collision between %v and %v", prev, n)
			}
			seen[k] = n
		}
	}
}

// pathNodes is the nodes of the path runs of the one key v: the
// dyadic ranges DR(v), leaf first.
func pathNodes(d Domain, v uint64) []Node {
	var nodes []Node
	for _, r := range PathRuns(d, []uint64{v}) {
		nodes = append(nodes, r.Node)
	}
	return nodes
}

func TestPathNodes(t *testing.T) {
	d := Domain{Bits: 3}
	nodes := pathNodes(d, 6)
	want := []Node{{0, 6}, {1, 6}, {2, 4}, {3, 0}}
	if len(nodes) != len(want) {
		t.Fatalf("PathRuns returned %d nodes, want %d", len(nodes), len(want))
	}
	for i, n := range nodes {
		if n != want[i] {
			t.Errorf("node %d = %v, want %v", i, n, want[i])
		}
	}
}

func TestPathNodesProperties(t *testing.T) {
	d := Domain{Bits: 10}
	f := func(v uint64) bool {
		v %= d.Size()
		nodes := pathNodes(d, v)
		if len(nodes) != int(d.Bits)+1 {
			return false
		}
		for i, n := range nodes {
			if n.Level != uint8(i) || !n.Contains(v) {
				return false
			}
			if n.Start&(n.Size()-1) != 0 {
				return false // must be dyadic-aligned
			}
		}
		return nodes[d.Bits] == d.Root()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTotalNodes(t *testing.T) {
	if got := TotalNodes(Domain{Bits: 3}); got != 15 {
		t.Errorf("TotalNodes(8) = %d, want 15", got)
	}
}

func TestCeilLog2(t *testing.T) {
	cases := map[uint64]uint8{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 1024: 10, 1025: 11}
	for v, want := range cases {
		if got := ceilLog2(v); got != want {
			t.Errorf("ceilLog2(%d) = %d, want %d", v, got, want)
		}
	}
}
