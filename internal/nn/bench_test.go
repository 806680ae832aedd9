package nn

import (
	"testing"

	"github.com/everest-project/everest/internal/xrand"
)

// BenchmarkModelFit trains the cmdn ArchPooled model (97 pooled features,
// Dense→ReLU backbone, MDN head) at the smallest and largest points of
// cmdn.PaperGrid(), on as many samples and epochs as the cmdn training
// benchmarks use. Every iteration trains a fresh copy of the same model.
func BenchmarkModelFit(b *testing.B) {
	const in, n = 97, 286
	r := xrand.New(5)
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = make([]float64, in)
		for j := range xs[i] {
			xs[i][j] = r.Norm()
		}
		ys[i] = r.Norm()
	}
	for _, hy := range []struct {
		name string
		g, h int
	}{{"G5H20", 5, 20}, {"G15H40", 15, 40}} {
		b.Run(hy.name, func(b *testing.B) {
			r := xrand.New(7)
			m := &Model{
				Backbone: NewSequential(NewDense(in, hy.h, r), NewReLU(hy.h)),
				Head:     NewMDN(hy.h, hy.g, r),
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Clone().Fit(xs, ys, TrainConfig{Epochs: 5, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
