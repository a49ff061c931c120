package cover

import (
	mrand "math/rand"
	"testing"
)

// Micro-benchmarks for the covering primitives on the paper's Figure 8
// domain (2^20). Cover computation is pure arithmetic; these set the
// baseline under the PRF costs measured in Figure 8(b).

func benchRanges(b *testing.B, R uint64) []uint64 {
	d := Domain{Bits: 20}
	rnd := mrand.New(mrand.NewSource(1))
	los := make([]uint64, 1024)
	for i := range los {
		los[i] = rnd.Uint64() % (d.Size() - R)
	}
	return los
}

func BenchmarkBRC_R100(b *testing.B) {
	d := Domain{Bits: 20}
	los := benchRanges(b, 100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BRC(d, los[i%len(los)], los[i%len(los)]+99); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkURC_R100(b *testing.B) {
	d := Domain{Bits: 20}
	los := benchRanges(b, 100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := URC(d, los[i%len(los)], los[i%len(los)]+99); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSRC_R100(b *testing.B) {
	td := NewTDAG(Domain{Bits: 20})
	los := benchRanges(b, 100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := td.SRC(los[i%len(los)], los[i%len(los)]+99); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTDAGCover(b *testing.B) {
	td := NewTDAG(Domain{Bits: 20})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		td.Runs([]uint64{uint64(i) % td.D.Size()})
	}
}

// BenchmarkPlanBatch plans the batches the query pipeline plans, on the
// 2^16 domain of the query-path workloads: URC16 is a batch_cluster
// shard's shape, sixteen URC ranges of width 64–511 inside one
// 2,048-value window; BRC64 is BenchmarkQueryBatchPath's, sixty-four BRC
// ranges of width m/10 sliding by m/1024. Each op is one PlanBatch.
func BenchmarkPlanBatch(b *testing.B) {
	d := Domain{Bits: 16}
	m := d.Size()
	rnd := mrand.New(mrand.NewSource(1))
	urc := make([][]Interval, 64)
	for k := range urc {
		base := rnd.Uint64() % (m - 2048)
		urc[k] = make([]Interval, 16)
		for i := range urc[k] {
			w := 64 + rnd.Uint64()%448
			lo := base + rnd.Uint64()%(2048-w)
			urc[k][i] = Interval{Lo: lo, Hi: lo + w - 1}
		}
	}
	brc := make([]Interval, 64)
	for i := range brc {
		lo := m/8 + uint64(i)*(m/1024)
		brc[i] = Interval{Lo: lo, Hi: lo + m/10 - 1}
	}
	for _, bc := range []struct {
		name    string
		tech    Technique
		batches [][]Interval
	}{{"URC16", URCTechnique, urc}, {"BRC64", BRCTechnique, [][]Interval{brc}}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			nodes := 0
			for i := 0; i < b.N; i++ {
				p, err := PlanBatch(d, bc.batches[i%len(bc.batches)], bc.tech)
				if err != nil {
					b.Fatal(err)
				}
				nodes += p.Total
			}
			b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
		})
	}
}
