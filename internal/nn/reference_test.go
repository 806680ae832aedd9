package nn

import (
	"fmt"
	"math"
	"testing"

	"github.com/everest-project/everest/internal/xrand"
)

// This file keeps the plain scalar training kernels as the reference the
// optimized ones must match bit for bit (see the package comment).

// refDenseForward is the scalar Dense.Forward: one add chain per row.
func refDenseForward(d *Dense, x []float64) []float64 {
	d.x = x
	out := make([]float64, d.out)
	for o := 0; o < d.out; o++ {
		s := d.b.W[o]
		row := d.w.W[o*d.in : (o+1)*d.in]
		for i, xi := range x {
			s += row[i] * xi
		}
		out[o] = s
	}
	return out
}

// refDenseBackward is the scalar Dense.Backward: every row, zero or not,
// and always the input gradient.
func refDenseBackward(d *Dense, grad []float64) []float64 {
	dx := make([]float64, d.in)
	for o := 0; o < d.out; o++ {
		g := grad[o]
		d.b.G[o] += g
		row := d.w.W[o*d.in : (o+1)*d.in]
		growRow := d.w.G[o*d.in : (o+1)*d.in]
		for i := range row {
			growRow[i] += g * d.x[i]
			dx[i] += g * row[i]
		}
	}
	return dx
}

// refAdamStep is the scalar Adam.Step followed by a separate ZeroGrad.
func refAdamStep(a *Adam) {
	a.t++
	c1 := 1 - math.Pow(a.beta1, float64(a.t))
	c2 := 1 - math.Pow(a.beta2, float64(a.t))
	for i, p := range a.params {
		for j, g := range p.G {
			a.m[i][j] = a.beta1*a.m[i][j] + (1-a.beta1)*g
			a.v[i][j] = a.beta2*a.v[i][j] + (1-a.beta2)*g*g
			mhat := a.m[i][j] / c1
			vhat := a.v[i][j] / c2
			p.W[j] -= a.lr * mhat / (math.Sqrt(vhat) + a.eps)
		}
		p.ZeroGrad()
	}
}

// refForward runs l forward with the reference Dense kernel.
func refForward(l Layer, x []float64) []float64 {
	switch v := l.(type) {
	case *Sequential:
		for _, c := range v.layers {
			x = refForward(c, x)
		}
		return x
	case *Dense:
		return refDenseForward(v, x)
	default:
		return l.Forward(x)
	}
}

// refBackward runs l's full backward pass, input gradients included, with
// the reference Dense kernel.
func refBackward(l Layer, grad []float64) []float64 {
	switch v := l.(type) {
	case *Sequential:
		for i := len(v.layers) - 1; i >= 0; i-- {
			grad = refBackward(v.layers[i], grad)
		}
		return grad
	case *Dense:
		return refDenseBackward(v, grad)
	default:
		return l.Backward(grad)
	}
}

// refFit is Model.fit built from the reference kernels.
func refFit(m *Model, xs [][]float64, ys []float64, cfg TrainConfig, opt *Adam) float64 {
	r := xrand.New(cfg.Seed).Split("nn/fit")
	var last float64
	for ep := 0; ep < cfg.Epochs; ep++ {
		perm := r.Perm(len(xs))
		total := 0.0
		inBatch := 0
		for _, i := range perm {
			x := refForward(m.Backbone, xs[i])
			m.Head.mixture(refDenseForward(m.Head.dense, x))
			total += m.Head.NLL(ys[i])
			refBackward(m.Backbone, refDenseBackward(m.Head.dense, m.Head.rawGrad(ys[i])))
			inBatch++
			if inBatch == cfg.BatchSize {
				refAdamStep(opt)
				inBatch = 0
			}
		}
		if inBatch > 0 {
			refAdamStep(opt)
		}
		last = total / float64(len(xs))
	}
	return last
}

// requireSameBits fails unless got and want are equal bit for bit.
func requireSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, reference %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d]: %v (%#x), reference %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestDenseKernelsMatchReference drives the optimized and reference Dense
// kernels with the same inputs: widths on both sides of the four-row
// blocking, output gradients with ±0 entries and all-zero rows, several
// accumulations per gradient.
func TestDenseKernelsMatchReference(t *testing.T) {
	r := xrand.New(41)
	for in := 1; in <= 9; in++ {
		for out := 1; out <= 13; out++ {
			d := NewDense(in, out, r)
			ref := cloneLayerForTraining(d).(*Dense)
			params := cloneLayerForTraining(d).(*Dense)
			for s := 0; s < 6; s++ {
				x := make([]float64, in)
				for i := range x {
					x[i] = r.Norm()
				}
				x[r.Intn(in)] = 0
				grad := make([]float64, out)
				for o := range grad {
					switch r.Intn(4) {
					case 0:
						grad[o] = 0
					case 1:
						grad[o] = math.Copysign(0, -1)
					default:
						grad[o] = r.Norm()
					}
				}
				if s == 0 {
					clear(grad) // every row zero
				}
				what := fmt.Sprintf("in=%d out=%d sample %d", in, out, s)
				requireSameBits(t, what+" forward", d.Forward(x), refDenseForward(ref, x))
				params.Forward(x)
				requireSameBits(t, what+" dx", d.Backward(grad), refDenseBackward(ref, grad))
				params.backwardParams(grad)
			}
			for _, got := range []*Dense{d, params} {
				requireSameBits(t, fmt.Sprintf("in=%d out=%d weight grads", in, out), got.w.G, ref.w.G)
				requireSameBits(t, fmt.Sprintf("in=%d out=%d bias grads", in, out), got.b.G, ref.b.G)
			}
		}
	}
}

// fitCase is one model shape for TestFitMatchesReference.
type fitCase struct {
	name  string
	inDim int
	build func(r *xrand.RNG) *Model
}

// pooledCase is the cmdn ArchPooled shape: Dense(in→h)+ReLU backbone and
// an MDN head with g components.
func pooledCase(in, g, h int) fitCase {
	return fitCase{
		name:  fmt.Sprintf("pooled/in%d/G%d/H%d", in, g, h),
		inDim: in,
		build: func(r *xrand.RNG) *Model {
			return &Model{
				Backbone: NewSequential(NewDense(in, h, r), NewReLU(h)),
				Head:     NewMDN(h, g, r),
			}
		},
	}
}

// TestFitMatchesReference trains each model with Fit and with the
// reference loop and requires bit-identical NLLs, weights and Adam
// moments. The shapes cover every point of cmdn.PaperGrid() over the
// 97-wide ArchPooled features, widths that are not a multiple of four,
// and a conv stack whose first layer is a Conv2D. 37 samples in
// minibatches of 16 leave a short last batch of 5.
func TestFitMatchesReference(t *testing.T) {
	var cases []fitCase
	for _, g := range []int{5, 8, 12, 15} { // cmdn.PaperGrid()
		for _, h := range []int{20, 30, 40} {
			cases = append(cases, pooledCase(97, g, h))
		}
	}
	for _, s := range [][3]int{{1, 1, 1}, {3, 2, 5}, {6, 3, 7}, {11, 4, 9}, {13, 7, 13}} {
		cases = append(cases, pooledCase(s[0], s[1], s[2]))
	}
	cases = append(cases, fitCase{
		name:  "conv",
		inDim: 64,
		build: func(r *xrand.RNG) *Model {
			return &Model{
				Backbone: NewSequential(
					NewConv2D(1, 8, 8, 2, r),
					NewReLU(2*8*8),
					NewMaxPool2D(2, 8, 8),
					NewConv2D(2, 4, 4, 3, r),
					NewReLU(3*4*4),
					NewMaxPool2D(3, 4, 4),
					NewDense(3*2*2, 6, r),
					NewReLU(6),
				),
				Head: NewMDN(6, 3, r),
			}
		},
	})

	for ci, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := xrand.New(uint64(100 + ci))
			const n = 37
			xs := make([][]float64, n)
			ys := make([]float64, n)
			for i := range xs {
				xs[i] = make([]float64, c.inDim)
				for j := range xs[i] {
					xs[i][j] = r.Norm()
				}
				ys[i] = 2*r.Norm() + 1
			}
			cfg := TrainConfig{Epochs: 3, BatchSize: 16, Seed: uint64(ci)}.withDefaults()

			m := c.build(r)
			viaFit := m.Clone()
			ref := m.Clone()
			opt := NewAdam(m.params(), cfg.LearningRate)
			refOpt := NewAdam(ref.params(), cfg.LearningRate)

			nll := m.fit(xs, ys, cfg, opt)
			fitNLL, err := viaFit.Fit(xs, ys, cfg)
			if err != nil {
				t.Fatal(err)
			}
			refNLL := refFit(ref, xs, ys, cfg, refOpt)
			requireSameBits(t, "NLL", []float64{nll, fitNLL}, []float64{refNLL, refNLL})
			for pi, p := range ref.params() {
				requireSameBits(t, fmt.Sprintf("param %d weights", pi), m.params()[pi].W, p.W)
				requireSameBits(t, fmt.Sprintf("param %d weights via Fit", pi), viaFit.params()[pi].W, p.W)
				requireSameBits(t, fmt.Sprintf("param %d grads", pi), m.params()[pi].G, p.G)
				requireSameBits(t, fmt.Sprintf("param %d Adam m", pi), opt.m[pi], refOpt.m[pi])
				requireSameBits(t, fmt.Sprintf("param %d Adam v", pi), opt.v[pi], refOpt.v[pi])
			}
			if opt.t != refOpt.t {
				t.Fatalf("Adam steps %d, reference %d", opt.t, refOpt.t)
			}
		})
	}
}
