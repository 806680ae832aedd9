// Package nn is a small from-scratch neural-network substrate built for
// the CMDN proxy scorer (§3.2): dense and convolutional layers, ReLU,
// max-pooling, an Adam optimizer and a mixture-density output head trained
// by negative log-likelihood. It is slice-based, stdlib-only and sized for
// a deterministic trainer at sample counts of a few thousand.
//
// Kernel contract: every output element is summed in a fixed order — a
// Dense output adds its terms in input order, a Dense input gradient adds
// its terms in output order, Adam applies the textbook update element by
// element. Optimized kernels (register blocking, skipped ±0 gradient
// rows, the first layer's skipped input gradient) may change anything but
// that order, so trained weights, Adam moments and NLLs are bit-identical
// to the plain scalar loops. reference_test.go keeps those loops and
// checks the equivalence bit for bit.
//
// Memory discipline: layers own reusable scratch buffers, so the
// steady-state forward/backward hot path allocates nothing. The slices
// returned by Forward and Backward are owned by the layer and remain valid
// only until its next call; callers that retain results must copy.
//
// Concurrency: a Layer or Model instance processes one sample at a time
// and is NOT safe for concurrent use. Model.CloneForInference returns a
// clone that shares the trained weights but owns private scratch, so N
// clones can run Forward/Predict on N goroutines as long as nobody trains
// concurrently.
package nn

import (
	"fmt"
	"math"

	"github.com/everest-project/everest/internal/xrand"
)

// Param is one trainable tensor with its gradient accumulator.
type Param struct {
	// W holds the weights.
	W []float64
	// G accumulates dLoss/dW between optimizer steps.
	G []float64
}

func newParam(n int) *Param {
	return &Param{W: make([]float64, n), G: make([]float64, n)}
}

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() {
	for i := range p.G {
		p.G[i] = 0
	}
}

// clone returns a deep copy: fresh tensors with the weights copied and
// the gradient accumulator cleared.
func (p *Param) clone() *Param {
	c := newParam(len(p.W))
	copy(c.W, p.W)
	return c
}

// Layer is a differentiable transform. Forward caches whatever Backward
// needs, so a Layer instance processes one sample at a time. Forward and
// Backward return layer-owned scratch, valid until the next call.
type Layer interface {
	// Forward maps the input activation to the output activation.
	Forward(x []float64) []float64
	// Backward takes dLoss/dOutput, accumulates parameter gradients and
	// returns dLoss/dInput.
	Backward(grad []float64) []float64
	// Params returns the layer's trainable parameters (possibly empty).
	Params() []*Param
	// OutSize is the length of the output activation vector.
	OutSize() int
}

// scratch returns buf resized to n, reusing its backing array when able.
func scratch(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// zeroed returns buf resized to n with every element cleared.
func zeroed(buf []float64, n int) []float64 {
	buf = scratch(buf, n)
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// cloneLayerForInference returns a layer sharing l's trainable parameters
// but owning private activation scratch. All layer types defined in this
// package are supported; cloning an unknown Layer implementation panics.
func cloneLayerForInference(l Layer) Layer {
	switch v := l.(type) {
	case *Dense:
		return &Dense{in: v.in, out: v.out, w: v.w, b: v.b}
	case *ReLU:
		return NewReLU(v.n)
	case *Conv2D:
		return &Conv2D{inC: v.inC, inH: v.inH, inW: v.inW, outC: v.outC, k: v.k, w: v.w, b: v.b}
	case *MaxPool2D:
		return NewMaxPool2D(v.c, v.h, v.w)
	case *Sequential:
		layers := make([]Layer, len(v.layers))
		for i, l := range v.layers {
			layers[i] = cloneLayerForInference(l)
		}
		return &Sequential{layers: layers}
	default:
		panic(fmt.Sprintf("nn: cannot clone layer of type %T", l))
	}
}

// cloneLayerForTraining returns a deep copy of a layer: fresh parameter
// tensors with the trained weights copied, so the clone can keep
// training (warm-start fine-tuning) without mutating the original. All
// layer types defined in this package are supported; cloning an unknown
// Layer implementation panics.
func cloneLayerForTraining(l Layer) Layer {
	switch v := l.(type) {
	case *Dense:
		return &Dense{in: v.in, out: v.out, w: v.w.clone(), b: v.b.clone()}
	case *ReLU:
		return NewReLU(v.n)
	case *Conv2D:
		return &Conv2D{inC: v.inC, inH: v.inH, inW: v.inW, outC: v.outC, k: v.k, w: v.w.clone(), b: v.b.clone()}
	case *MaxPool2D:
		return NewMaxPool2D(v.c, v.h, v.w)
	case *Sequential:
		layers := make([]Layer, len(v.layers))
		for i, l := range v.layers {
			layers[i] = cloneLayerForTraining(l)
		}
		return &Sequential{layers: layers}
	default:
		panic(fmt.Sprintf("nn: cannot clone layer of type %T", l))
	}
}

// Dense is a fully connected layer: out = W·x + b.
type Dense struct {
	in, out int
	w, b    *Param
	x       []float64 // cached input
	fwd     []float64 // Forward scratch
	dx      []float64 // Backward scratch
	live    []int     // Backward scratch: rows with a nonzero gradient
}

// NewDense creates a dense layer with He-initialized weights.
func NewDense(in, out int, r *xrand.RNG) *Dense {
	d := &Dense{in: in, out: out, w: newParam(in * out), b: newParam(out)}
	std := math.Sqrt(2 / float64(in))
	for i := range d.w.W {
		d.w.W[i] = std * r.Norm()
	}
	return d
}

// Forward implements Layer. Rows are computed four at a time: four
// independent add chains share each load of x, and each chain still adds
// its terms in input order.
func (d *Dense) Forward(x []float64) []float64 {
	if len(x) != d.in {
		panic(fmt.Sprintf("nn: Dense input %d, want %d", len(x), d.in))
	}
	d.x = x
	d.fwd = scratch(d.fwd, d.out)
	out := d.fwd
	// Re-slicing each row to [:n] lets the compiler drop the inner loops'
	// bounds checks.
	w, b, n := d.w.W, d.b.W, len(x)
	o := 0
	for ; o+4 <= d.out; o += 4 {
		w0 := w[o*n : (o+1)*n][:n]
		w1 := w[(o+1)*n : (o+2)*n][:n]
		w2 := w[(o+2)*n : (o+3)*n][:n]
		w3 := w[(o+3)*n : (o+4)*n][:n]
		s0, s1, s2, s3 := b[o], b[o+1], b[o+2], b[o+3]
		for i, xi := range x {
			s0 += w0[i] * xi
			s1 += w1[i] * xi
			s2 += w2[i] * xi
			s3 += w3[i] * xi
		}
		out[o], out[o+1], out[o+2], out[o+3] = s0, s1, s2, s3
	}
	for ; o < d.out; o++ {
		s := b[o]
		row := w[o*n : (o+1)*n][:n]
		for i, xi := range x {
			s += row[i] * xi
		}
		out[o] = s
	}
	return out
}

// Backward implements Layer.
func (d *Dense) Backward(grad []float64) []float64 {
	d.dx = zeroed(d.dx, d.in)
	d.backward(grad, d.dx)
	return d.dx
}

// backwardParams accumulates the parameter gradients only. A model's
// first layer uses it: nothing reads the gradient of the model input.
func (d *Dense) backwardParams(grad []float64) { d.backward(grad, nil) }

// backward accumulates the parameter gradients for the output gradient
// grad and, when dx is non-nil, adds dLoss/dInput into dx.
//
// Rows whose output gradient is ±0 are skipped, which is bit-identical to
// adding their terms for finite inputs and weights: those terms are all
// ±0, and every accumulator they would reach (b.G and w.G, which start at
// +0 from newParam or ZeroGrad, and dx, which starts zeroed) is never −0,
// because a round-to-nearest sum is −0 only when both addends are; and
// a + ±0 == a bit for bit whenever a is not −0.
//
// The remaining rows are processed four at a time, so each dx[i] takes
// one load and store per four rows while still adding its terms in row
// order.
func (d *Dense) backward(grad, dx []float64) {
	if cap(d.live) < d.out {
		d.live = make([]int, 0, d.out)
	}
	live := d.live[:0]
	for o, g := range grad[:d.out] {
		if g != 0 {
			live = append(live, o)
		}
	}
	d.live = live
	for _, o := range live {
		d.b.G[o] += grad[o]
	}
	n := d.in
	x, w, gw := d.x[:n], d.w.W, d.w.G
	k := 0
	for ; k+4 <= len(live); k += 4 {
		o0, o1, o2, o3 := live[k], live[k+1], live[k+2], live[k+3]
		g0, g1, g2, g3 := grad[o0], grad[o1], grad[o2], grad[o3]
		gw0 := gw[o0*n : (o0+1)*n][:n]
		gw1 := gw[o1*n : (o1+1)*n][:n]
		gw2 := gw[o2*n : (o2+1)*n][:n]
		gw3 := gw[o3*n : (o3+1)*n][:n]
		for i, xi := range x {
			gw0[i] += g0 * xi
			gw1[i] += g1 * xi
			gw2[i] += g2 * xi
			gw3[i] += g3 * xi
		}
		if dx == nil {
			continue
		}
		w0 := w[o0*n : (o0+1)*n][:n]
		w1 := w[o1*n : (o1+1)*n][:n]
		w2 := w[o2*n : (o2+1)*n][:n]
		w3 := w[o3*n : (o3+1)*n][:n]
		dx := dx[:n]
		for i := range dx {
			dx[i] = dx[i] + g0*w0[i] + g1*w1[i] + g2*w2[i] + g3*w3[i]
		}
	}
	for ; k < len(live); k++ {
		o := live[k]
		g := grad[o]
		gwRow := gw[o*n : (o+1)*n][:n]
		for i, xi := range x {
			gwRow[i] += g * xi
		}
		if dx == nil {
			continue
		}
		row := w[o*n : (o+1)*n][:n]
		dx := dx[:n]
		for i := range dx {
			dx[i] += g * row[i]
		}
	}
}

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.w, d.b} }

// OutSize implements Layer.
func (d *Dense) OutSize() int { return d.out }

// ReLU is the rectified linear activation.
type ReLU struct {
	n    int
	mask []bool
	fwd  []float64
	dx   []float64
}

// NewReLU creates a ReLU over n units.
func NewReLU(n int) *ReLU { return &ReLU{n: n, mask: make([]bool, n)} }

// Forward implements Layer.
func (r *ReLU) Forward(x []float64) []float64 {
	r.fwd = scratch(r.fwd, len(x))
	out := r.fwd
	for i, v := range x {
		if v > 0 {
			out[i] = v
			r.mask[i] = true
		} else {
			out[i] = 0
			r.mask[i] = false
		}
	}
	return out
}

// Backward implements Layer.
func (r *ReLU) Backward(grad []float64) []float64 {
	r.dx = scratch(r.dx, len(grad))
	dx := r.dx
	for i, g := range grad {
		if r.mask[i] {
			dx[i] = g
		} else {
			dx[i] = 0
		}
	}
	return dx
}

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// OutSize implements Layer.
func (r *ReLU) OutSize() int { return r.n }

// Sequential chains layers.
type Sequential struct {
	layers []Layer
}

// NewSequential builds a chain.
func NewSequential(layers ...Layer) *Sequential { return &Sequential{layers: layers} }

// Forward implements Layer.
func (s *Sequential) Forward(x []float64) []float64 {
	for _, l := range s.layers {
		x = l.Forward(x)
	}
	return x
}

// Backward implements Layer.
func (s *Sequential) Backward(grad []float64) []float64 {
	for i := len(s.layers) - 1; i >= 0; i-- {
		grad = s.layers[i].Backward(grad)
	}
	return grad
}

// backwardParams is Backward without dLoss/dInput: the first layer only
// accumulates its parameter gradients.
func (s *Sequential) backwardParams(grad []float64) {
	for i := len(s.layers) - 1; i > 0; i-- {
		grad = s.layers[i].Backward(grad)
	}
	backwardParams(s.layers[0], grad)
}

// backwardParams runs l's backward pass for its parameter gradients only,
// skipping dLoss/dInput where l supports that. Model.Fit uses it on the
// backbone, whose input gradient nobody reads.
func backwardParams(l Layer, grad []float64) {
	if p, ok := l.(interface{ backwardParams([]float64) }); ok {
		p.backwardParams(grad)
		return
	}
	l.Backward(grad)
}

// Params implements Layer.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// OutSize implements Layer.
func (s *Sequential) OutSize() int { return s.layers[len(s.layers)-1].OutSize() }
