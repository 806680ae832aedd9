package nn

import "math"

// Adam is the Adam optimizer (Kingma & Ba) over a fixed parameter set.
type Adam struct {
	lr, beta1, beta2, eps float64
	params                []*Param
	m, v                  [][]float64
	t                     int
}

// NewAdam creates an optimizer with the usual defaults (β1=0.9, β2=0.999).
func NewAdam(params []*Param, lr float64) *Adam {
	a := &Adam{lr: lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, params: params}
	a.m = make([][]float64, len(params))
	a.v = make([][]float64, len(params))
	for i, p := range params {
		a.m[i] = make([]float64, len(p.W))
		a.v[i] = make([]float64, len(p.W))
	}
	return a
}

// Step applies one update from the accumulated gradients and clears them.
// The update is the textbook one, element by element and in the same
// operation order; only loop-invariant values are hoisted and the gradient
// is cleared in the same pass. The bias corrections c1 and c2 stay
// divisors: multiplying by their reciprocals would round differently.
func (a *Adam) Step() {
	a.t++
	c1 := 1 - math.Pow(a.beta1, float64(a.t))
	c2 := 1 - math.Pow(a.beta2, float64(a.t))
	b1, b2, lr, eps := a.beta1, a.beta2, a.lr, a.eps
	ob1, ob2 := 1-b1, 1-b2
	for i, p := range a.params {
		w := p.W
		g, m, v := p.G[:len(w)], a.m[i][:len(w)], a.v[i][:len(w)]
		for j, gj := range g {
			mj := b1*m[j] + ob1*gj
			vj := b2*v[j] + ob2*gj*gj
			m[j], v[j] = mj, vj
			mhat := mj / c1
			vhat := vj / c2
			w[j] -= lr * mhat / (math.Sqrt(vhat) + eps)
			g[j] = 0
		}
	}
}
