package nn

import "math"

// Adam implements the Adam optimizer with bias correction.
type Adam struct {
	ps           *ParamSet
	LR           float64
	Beta1, Beta2 float64
	Eps          float64
	m, v         *Grads
	t            int
}

// NewAdam returns an Adam optimizer with standard defaults
// (β1=0.9, β2=0.999, ε=1e-8).
func NewAdam(ps *ParamSet, lr float64) *Adam {
	return &Adam{
		ps: ps, LR: lr,
		Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: NewGrads(ps), v: NewGrads(ps),
	}
}

// Step applies one update. grads must match the ParamSet layout the
// optimizer was constructed with.
func (a *Adam) Step(grads *Grads) {
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for i, p := range a.ps.params {
		g := grads.mats[i]
		m := a.m.mats[i]
		v := a.v.mats[i]
		for k := range p.Value.Data {
			m.Data[k] = a.Beta1*m.Data[k] + (1-a.Beta1)*g.Data[k]
			v.Data[k] = a.Beta2*v.Data[k] + (1-a.Beta2)*g.Data[k]*g.Data[k]
			mhat := m.Data[k] / c1
			vhat := v.Data[k] / c2
			p.Value.Data[k] -= a.LR * mhat / (math.Sqrt(vhat) + a.Eps)
		}
	}
}
