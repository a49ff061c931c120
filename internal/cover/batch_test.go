package cover

import (
	mrand "math/rand"
	"slices"
	"testing"
)

// TestPlanBatchReconstructsCovers: PerRange must reproduce every range's
// cover exactly, and Nodes must hold no duplicates.
func TestPlanBatchReconstructsCovers(t *testing.T) {
	d := Domain{Bits: 12}
	rnd := mrand.New(mrand.NewSource(3))
	var ranges []Interval
	for i := 0; i < 50; i++ {
		lo := rnd.Uint64() % d.Size()
		hi := lo + rnd.Uint64()%(d.Size()-lo)
		ranges = append(ranges, Interval{Lo: lo, Hi: hi})
	}
	for _, tech := range []Technique{BRCTechnique, URCTechnique} {
		p, err := PlanBatch(d, ranges, tech)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[Node]bool, len(p.Nodes))
		for _, n := range p.Nodes {
			if seen[n] {
				t.Fatalf("%v: node %v appears twice in the deduped plan", tech, n)
			}
			seen[n] = true
		}
		total := 0
		for i, r := range ranges {
			want, err := Cover(d, r.Lo, r.Hi, tech)
			if err != nil {
				t.Fatal(err)
			}
			total += len(want)
			got := p.PerRange[i]
			if len(got) != len(want) {
				t.Fatalf("%v range %v: plan has %d nodes, cover has %d", tech, r, len(got), len(want))
			}
			for j, u := range got {
				if p.Nodes[u] != want[j] {
					t.Fatalf("%v range %v node %d: plan %v, cover %v", tech, r, j, p.Nodes[u], want[j])
				}
			}
		}
		if p.Total != total {
			t.Fatalf("%v: Total = %d, want %d", tech, p.Total, total)
		}
		if p.Unique() > p.Total {
			t.Fatalf("%v: more unique nodes (%d) than total (%d)", tech, p.Unique(), p.Total)
		}
	}
}

// TestPlanBatchSRC: every range maps to its TDAG SRC node, identical
// windows collapse.
func TestPlanBatchSRC(t *testing.T) {
	d := Domain{Bits: 10}
	td := NewTDAG(d)
	ranges := []Interval{{0, 100}, {0, 100}, {50, 120}, {512, 512}, {0, 1023}}
	p, err := PlanBatchSRC(td, ranges)
	if err != nil {
		t.Fatal(err)
	}
	if p.Total != len(ranges) {
		t.Fatalf("Total = %d, want %d", p.Total, len(ranges))
	}
	for i, r := range ranges {
		want, err := td.SRC(r.Lo, r.Hi)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.PerRange[i]) != 1 || p.Nodes[p.PerRange[i][0]] != want {
			t.Fatalf("range %v: plan node %v, SRC %v", r, p.Nodes[p.PerRange[i][0]], want)
		}
	}
	// The duplicated [0,100] must share one node.
	if p.PerRange[0][0] != p.PerRange[1][0] {
		t.Fatal("identical ranges did not dedupe")
	}
	if p.Unique() >= len(ranges) {
		t.Fatalf("no dedup happened: %d unique of %d", p.Unique(), len(ranges))
	}
}

// TestPlanBatchOneInterval: a plan of one interval is that interval's
// cover, node for node, with no per-range view.
func TestPlanBatchOneInterval(t *testing.T) {
	d := Domain{Bits: 12}
	r := Interval{Lo: 5, Hi: 3000}
	for _, tech := range []Technique{BRCTechnique, URCTechnique} {
		want, err := Cover(d, r.Lo, r.Hi, tech)
		if err != nil {
			t.Fatal(err)
		}
		p, err := PlanBatch(d, []Interval{r}, tech)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(p.Nodes, want) || p.PerRange != nil || p.Total != len(want) {
			t.Fatalf("%v: plan %+v, cover %v", tech, p, want)
		}
	}
	want, err := NewTDAG(d).SRC(r.Lo, r.Hi)
	if err != nil {
		t.Fatal(err)
	}
	p, err := PlanBatchSRC(NewTDAG(d), []Interval{r})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Nodes) != 1 || p.Nodes[0] != want || p.PerRange != nil || p.Total != 1 {
		t.Fatalf("SRC plan %+v, window %v", p, want)
	}
}

// TestPlanBatchRejectsBadRange: validation matches Cover's.
func TestPlanBatchRejectsBadRange(t *testing.T) {
	d := Domain{Bits: 8}
	if _, err := PlanBatch(d, []Interval{{0, 10}, {5, 1 << 20}}, BRCTechnique); err == nil {
		t.Fatal("out-of-domain interval accepted")
	}
	if _, err := PlanBatchSRC(NewTDAG(d), []Interval{{10, 5}}); err == nil {
		t.Fatal("inverted interval accepted")
	}
}
