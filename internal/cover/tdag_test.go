package cover

import (
	mrand "math/rand"
	"slices"
	"testing"
)

func TestTDAGValid(t *testing.T) {
	td := NewTDAG(Domain{Bits: 3})
	valid := []Node{{0, 0}, {0, 7}, {1, 0}, {1, 1}, {1, 6}, {2, 2}, {3, 0}}
	for _, n := range valid {
		if !td.Valid(n) {
			t.Errorf("%v should be a valid TDAG node", n)
		}
	}
	invalid := []Node{
		{1, 7}, // window [7,8] exceeds the domain
		{2, 1}, // start not aligned to half the size
		{2, 6}, // window [6,9] exceeds the domain
		{3, 4}, // window [4,11] exceeds the domain
		{4, 0}, // level above the root
		{0, 8}, // leaf outside the domain
	}
	for _, n := range invalid {
		if td.Valid(n) {
			t.Errorf("%v should not be a valid TDAG node", n)
		}
	}
}

// TestTDAGFigure3 checks the exact node set of the paper's Figure 3
// (domain {0..7}): the binary tree plus injected nodes N1,2, N3,4, N5,6
// and N2,5.
func TestTDAGFigure3(t *testing.T) {
	td := NewTDAG(Domain{Bits: 3})
	injected := []Node{{1, 1}, {1, 3}, {1, 5}, {2, 2}}
	for _, n := range injected {
		if !td.Valid(n) {
			t.Errorf("injected node %v missing from TDAG", n)
		}
	}
	// Count all valid nodes: 8 leaves + 7 binary + 4 injected = 19.
	count := 0
	for l := uint8(0); l <= 3; l++ {
		for start := uint64(0); start < 8; start++ {
			if td.Valid(Node{Level: l, Start: start}) {
				count++
			}
		}
	}
	if count != 19 {
		t.Errorf("TDAG over 8 values has %d nodes, want 19", count)
	}
}

// cover is the nodes of td's runs of the one key v: the TDAG nodes
// whose window contains v.
func cover(td TDAG, v uint64) []Node {
	var nodes []Node
	for _, r := range td.Runs([]uint64{v}) {
		nodes = append(nodes, r.Node)
	}
	return nodes
}

func TestTDAGCover(t *testing.T) {
	td := NewTDAG(Domain{Bits: 3})
	for v := uint64(0); v < 8; v++ {
		nodes := cover(td, v)
		seen := map[Node]bool{}
		for _, n := range nodes {
			if !td.Valid(n) {
				t.Errorf("Cover(%d) contains invalid node %v", v, n)
			}
			if !n.Contains(v) {
				t.Errorf("Cover(%d) node %v does not contain %d", v, n, v)
			}
			if seen[n] {
				t.Errorf("Cover(%d) contains duplicate node %v", v, n)
			}
			seen[n] = true
		}
		// Completeness: every valid TDAG node containing v must be listed.
		for l := uint8(0); l <= 3; l++ {
			for start := uint64(0); start < 8; start++ {
				n := Node{Level: l, Start: start}
				if td.Valid(n) && n.Contains(v) && !seen[n] {
					t.Errorf("Cover(%d) misses node %v", v, n)
				}
			}
		}
	}
}

// TestTDAGRuns: over many ascending keys, with ties and gaps, each run
// is exactly the keys its node holds, and every valid node that holds a
// key has a run; PathRuns is the same over the binary tree's nodes.
func TestTDAGRuns(t *testing.T) {
	d := Domain{Bits: 6}
	rnd := mrand.New(mrand.NewSource(6))
	keys := make([]uint64, 90)
	for i := range keys {
		keys[i] = rnd.Uint64() % d.Size()
	}
	slices.Sort(keys)
	td := NewTDAG(d)
	for _, tc := range []struct {
		name  string
		runs  []Run
		valid func(Node) bool
	}{
		{"tdag", td.Runs(keys), td.Valid},
		{"path", PathRuns(d, keys), func(n Node) bool { return td.Valid(n) && n.Start%n.Size() == 0 }},
	} {
		got := map[Node][2]int{}
		for _, r := range tc.runs {
			if _, dup := got[r.Node]; dup || r.Lo >= r.Hi {
				t.Fatalf("%s: run %v repeated or empty", tc.name, r)
			}
			got[r.Node] = [2]int{r.Lo, r.Hi}
		}
		for l := uint8(0); l <= d.Bits; l++ {
			for start := uint64(0); start < d.Size(); start++ {
				n := Node{Level: l, Start: start}
				if !tc.valid(n) {
					continue
				}
				lo, _ := slices.BinarySearch(keys, n.Start)
				hi, _ := slices.BinarySearch(keys, n.End()+1)
				if r, ok := got[n]; (lo < hi || ok) && r != [2]int{lo, hi} {
					t.Fatalf("%s: node %v has run %v, want keys [%d, %d)", tc.name, n, r, lo, hi)
				}
				delete(got, n)
			}
		}
		if len(got) > 0 {
			t.Fatalf("%s: runs of no valid node: %v", tc.name, got)
		}
	}
	if runs := LeafRuns(keys); len(runs) != len(slices.Compact(slices.Clone(keys))) {
		t.Fatalf("%d leaf runs for %d distinct keys", len(runs), len(slices.Compact(slices.Clone(keys))))
	}
}

// TestTDAGCoverLogarithmic checks the O(log m) keyword bound that drives
// Logarithmic-SRC's O(n log m) storage.
func TestTDAGCoverLogarithmic(t *testing.T) {
	for _, bits := range []uint8{0, 1, 5, 16, 30} {
		td := NewTDAG(Domain{Bits: bits})
		rnd := mrand.New(mrand.NewSource(int64(bits)))
		for i := 0; i < 50; i++ {
			v := rnd.Uint64() % td.D.Size()
			if got, bound := len(cover(td, v)), 2*int(bits)+1; got > bound {
				t.Errorf("bits=%d: Cover(%d) has %d nodes, more than %d", bits, v, got, bound)
			}
		}
	}
}

func TestSRCPaperExamples(t *testing.T) {
	td := NewTDAG(Domain{Bits: 3})
	// Figure 3: SRC covers [2,7] by N0,7 and [3,5] by N2,5.
	n, err := td.SRC(2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if n != (Node{3, 0}) {
		t.Errorf("SRC([2,7]) = %v, want N0,7", n)
	}
	n, err = td.SRC(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if n != (Node{2, 2}) {
		t.Errorf("SRC([3,5]) = %v, want N2,5", n)
	}
}

// TestSRCLemma1Exhaustive verifies Lemma 1 on every range of several small
// domains: the SRC window covers the range, is a valid TDAG node, has size
// at most 4R, and is the *lowest* covering window.
func TestSRCLemma1Exhaustive(t *testing.T) {
	for _, bits := range []uint8{0, 1, 2, 3, 6, 8} {
		td := NewTDAG(Domain{Bits: bits})
		m := td.D.Size()
		for lo := uint64(0); lo < m; lo++ {
			for hi := lo; hi < m; hi++ {
				n, err := td.SRC(lo, hi)
				if err != nil {
					t.Fatal(err)
				}
				R := hi - lo + 1
				if !td.Valid(n) {
					t.Fatalf("bits=%d SRC([%d,%d]) = %v invalid", bits, lo, hi, n)
				}
				if !n.ContainsRange(lo, hi) {
					t.Fatalf("bits=%d SRC([%d,%d]) = %v does not cover", bits, lo, hi, n)
				}
				if n.Size() > 4*R {
					t.Fatalf("bits=%d SRC([%d,%d]) window %d > 4R=%d (Lemma 1)",
						bits, lo, hi, n.Size(), 4*R)
				}
				// Minimality: no valid TDAG window at a lower level covers.
				for l := uint8(0); l < n.Level; l++ {
					for start := uint64(0); start < m; start++ {
						c := Node{Level: l, Start: start}
						if td.Valid(c) && c.ContainsRange(lo, hi) {
							t.Fatalf("bits=%d SRC([%d,%d]) = %v but lower %v covers",
								bits, lo, hi, n, c)
						}
					}
				}
			}
		}
	}
}

// TestSRCLemma1Random verifies Lemma 1 on a large domain.
func TestSRCLemma1Random(t *testing.T) {
	td := NewTDAG(Domain{Bits: 40})
	rnd := mrand.New(mrand.NewSource(99))
	for i := 0; i < 5000; i++ {
		R := uint64(1) + rnd.Uint64()%(1<<24)
		lo := rnd.Uint64() % (td.D.Size() - R)
		hi := lo + R - 1
		n, err := td.SRC(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if !n.ContainsRange(lo, hi) {
			t.Fatalf("SRC([%d,%d]) = %v does not cover", lo, hi, n)
		}
		if !td.Valid(n) {
			t.Fatalf("SRC([%d,%d]) = %v invalid", lo, hi, n)
		}
		if n.Size() > 4*R {
			t.Fatalf("SRC([%d,%d]): window %d > 4R = %d", lo, hi, n.Size(), 4*R)
		}
	}
}

// TestSRCDomainEdges exercises ranges hugging the domain boundaries,
// where fewer windows fit and the cover must climb higher.
func TestSRCDomainEdges(t *testing.T) {
	td := NewTDAG(Domain{Bits: 10})
	m := td.D.Size()
	cases := [][2]uint64{
		{0, 0}, {m - 1, m - 1}, {0, m - 1}, {m - 5, m - 1},
		{0, 4}, {m / 2, m - 1}, {m/2 - 1, m / 2}, {1, m - 2},
	}
	for _, c := range cases {
		n, err := td.SRC(c[0], c[1])
		if err != nil {
			t.Fatal(err)
		}
		if !n.ContainsRange(c[0], c[1]) || !td.Valid(n) {
			t.Errorf("SRC(%v) = %v broken at domain edge", c, n)
		}
	}
}

func TestSRCInvalidRange(t *testing.T) {
	td := NewTDAG(Domain{Bits: 3})
	if _, err := td.SRC(5, 2); err == nil {
		t.Error("SRC on empty range should fail")
	}
	if _, err := td.SRC(0, 8); err == nil {
		t.Error("SRC beyond domain should fail")
	}
}

// TestNaiveSingleCover checks the Section 6.2 strawman: it must cover the
// range with the lowest binary-tree node, and a range straddling the
// domain midpoint must force the root regardless of R — the failure the
// TDAG exists to fix.
func TestNaiveSingleCover(t *testing.T) {
	d := Domain{Bits: 10}
	for lo := uint64(0); lo < d.Size(); lo += 7 {
		for _, R := range []uint64{1, 3, 16, 100} {
			hi := lo + R - 1
			if hi >= d.Size() {
				continue
			}
			n, err := NaiveSingleCover(d, lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			if !n.ContainsRange(lo, hi) {
				t.Fatalf("naive cover %v misses [%d,%d]", n, lo, hi)
			}
			if n.Start&(n.Size()-1) != 0 {
				t.Fatalf("naive cover %v not a binary-tree node", n)
			}
			// Minimality: the child containing lo must not cover hi.
			if n.Level > 0 {
				l, r := n.Children()
				if l.ContainsRange(lo, hi) || r.ContainsRange(lo, hi) {
					t.Fatalf("naive cover %v not minimal for [%d,%d]", n, lo, hi)
				}
			}
		}
	}
	mid := d.Size() / 2
	n, err := NaiveSingleCover(d, mid-1, mid) // R = 2, straddles midpoint
	if err != nil {
		t.Fatal(err)
	}
	if n != d.Root() {
		t.Errorf("straddling range got %v, want the root", n)
	}
	// The TDAG fixes exactly this case with an injected node.
	tn, err := NewTDAG(d).SRC(mid-1, mid)
	if err != nil {
		t.Fatal(err)
	}
	if tn.Size() > 8 {
		t.Errorf("TDAG window %v for the midpoint pair is not small", tn)
	}
	if _, err := NaiveSingleCover(d, 5, 2); err == nil {
		t.Error("empty range accepted")
	}
}

func TestSRCDeterministic(t *testing.T) {
	td := NewTDAG(Domain{Bits: 20})
	rnd := mrand.New(mrand.NewSource(5))
	for i := 0; i < 200; i++ {
		R := uint64(1) + rnd.Uint64()%1000
		lo := rnd.Uint64() % (td.D.Size() - R)
		a, _ := td.SRC(lo, lo+R-1)
		b, _ := td.SRC(lo, lo+R-1)
		if a != b {
			t.Fatalf("SRC not deterministic for [%d,%d]", lo, lo+R-1)
		}
	}
}
