package nn

import (
	"fmt"
	"math"

	"graph2par/internal/tensor"
)

// Param is a trainable matrix with its gradient and Adam moments.
type Param struct {
	Name string
	W    *tensor.Matrix
	G    *tensor.Matrix
	m, v *tensor.Matrix

	// idx is the parameter's position in its ParamSet (set by Register,
	// -1 until then); LocalGrads uses it to align worker-private gradient
	// matrices with their parameters.
	idx int
}

// NewParam allocates a parameter with Xavier initialization.
func NewParam(name string, rows, cols int, rng *tensor.RNG) *Param {
	return &Param{
		Name: name,
		W:    tensor.New(rows, cols).Xavier(rng),
		G:    tensor.New(rows, cols),
		m:    tensor.New(rows, cols),
		v:    tensor.New(rows, cols),
		idx:  -1,
	}
}

// NewParamGaussian allocates a parameter with N(0, std²) initialization.
func NewParamGaussian(name string, rows, cols int, std float64, rng *tensor.RNG) *Param {
	return &Param{
		Name: name,
		W:    tensor.New(rows, cols).Gaussian(rng, std),
		G:    tensor.New(rows, cols),
		m:    tensor.New(rows, cols),
		v:    tensor.New(rows, cols),
		idx:  -1,
	}
}

// NewParamZero allocates a zero-initialized parameter (biases, LN offsets).
func NewParamZero(name string, rows, cols int) *Param {
	return &Param{
		Name: name,
		W:    tensor.New(rows, cols),
		G:    tensor.New(rows, cols),
		m:    tensor.New(rows, cols),
		v:    tensor.New(rows, cols),
		idx:  -1,
	}
}

// NewParamOnes allocates a ones-initialized parameter (LN gains).
func NewParamOnes(name string, rows, cols int) *Param {
	p := NewParamZero(name, rows, cols)
	for i := range p.W.Data {
		p.W.Data[i] = 1
	}
	return p
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.G.Zero() }

// Numel returns the number of scalar weights.
func (p *Param) Numel() int { return len(p.W.Data) }

// ParamSet tracks every parameter of a model.
type ParamSet struct {
	params []*Param
}

// Register adds parameters to the set and returns the first one (for
// chaining convenience). A parameter belongs to exactly one set: its
// registration index is what aligns worker-private LocalGrads with it.
func (ps *ParamSet) Register(params ...*Param) *Param {
	for _, p := range params {
		if p.idx >= 0 {
			panic(fmt.Sprintf("nn: param %s registered twice", p.Name))
		}
		p.idx = len(ps.params)
		ps.params = append(ps.params, p)
	}
	return params[0]
}

// All returns the registered parameters.
//
//graph2lint:noalloc
func (ps *ParamSet) All() []*Param { return ps.params }

// ZeroGrad clears every gradient.
func (ps *ParamSet) ZeroGrad() {
	for _, p := range ps.params {
		p.ZeroGrad()
	}
}

// NumParams returns the total scalar parameter count.
func (ps *ParamSet) NumParams() int {
	total := 0
	for _, p := range ps.params {
		total += p.Numel()
	}
	return total
}

// GradNorm returns the global L2 norm of all gradients.
func (ps *ParamSet) GradNorm() float64 {
	var s float64
	for _, p := range ps.params {
		for _, v := range p.G.Data {
			s += v * v
		}
	}
	return math.Sqrt(s)
}

// ClipGrad scales gradients down to the given global norm if exceeded.
func (ps *ParamSet) ClipGrad(maxNorm float64) {
	n := ps.GradNorm()
	if n <= maxNorm || n == 0 {
		return
	}
	scale := maxNorm / n
	for _, p := range ps.params {
		p.G.Scale(scale)
	}
}

// ---------------------------------------------------------------------------
// Linear layer

// Linear is a dense layer y = xW + b.
type Linear struct {
	W *Param
	B *Param
}

// NewLinear builds a Linear layer and registers its parameters.
func NewLinear(ps *ParamSet, name string, in, out int, rng *tensor.RNG) *Linear {
	l := &Linear{
		W: NewParam(name+".w", in, out, rng),
		B: NewParamZero(name+".b", 1, out),
	}
	ps.Register(l.W, l.B)
	return l
}

// Apply runs the layer on x (N×in) producing N×out.
func (l *Linear) Apply(g *Graph, x *Node) *Node {
	return g.AddBias(g.MatMul(x, g.Param(l.W)), g.Param(l.B))
}

// ---------------------------------------------------------------------------
// Embedding

// Embedding is a lookup table of row vectors.
type Embedding struct {
	Table *Param
}

// NewEmbedding builds an embedding table with N(0, 0.02²) init.
func NewEmbedding(ps *ParamSet, name string, vocab, dim int, rng *tensor.RNG) *Embedding {
	e := &Embedding{Table: NewParamGaussian(name, vocab, dim, 0.02, rng)}
	ps.Register(e.Table)
	return e
}

// Lookup gathers rows for the given ids.
func (e *Embedding) Lookup(g *Graph, ids []int) *Node {
	for _, id := range ids {
		if id < 0 || id >= e.Table.W.Rows {
			panic(fmt.Sprintf("nn: embedding id %d out of range [0,%d)", id, e.Table.W.Rows))
		}
	}
	return g.GatherRows(g.Param(e.Table), ids)
}

// ---------------------------------------------------------------------------
// LayerNorm params bundle

// LayerNormParams couples a gain and bias pair for Graph.LayerNorm.
type LayerNormParams struct {
	Gain *Param
	Bias *Param
}

// NewLayerNorm builds LN parameters (gain=1, bias=0).
func NewLayerNorm(ps *ParamSet, name string, dim int) *LayerNormParams {
	ln := &LayerNormParams{
		Gain: NewParamOnes(name+".gain", 1, dim),
		Bias: NewParamZero(name+".bias", 1, dim),
	}
	ps.Register(ln.Gain, ln.Bias)
	return ln
}

// Apply normalizes x.
func (ln *LayerNormParams) Apply(g *Graph, x *Node) *Node {
	return g.LayerNorm(x, g.Param(ln.Gain), g.Param(ln.Bias))
}

// ---------------------------------------------------------------------------
// Adam

// Adam is the Adam optimizer with decoupled weight decay.
type Adam struct {
	LR          float64
	Beta1       float64
	Beta2       float64
	Eps         float64
	WeightDecay float64
	step        int
}

// NewAdam returns Adam with standard defaults and the given learning rate.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step applies one update to every parameter from its accumulated gradient.
// It is the "apply once" half of the accumulate-then-step contract of
// data-parallel training: workers produce per-example LocalGrads, the
// trainer folds them into Param.G with ParamSet.Accumulate in a fixed
// order, and a single Step consumes the summed gradient — so the optimizer
// trajectory is identical whether a minibatch was computed by one goroutine
// or many.
func (a *Adam) Step(ps *ParamSet) {
	a.step++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.step))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.step))
	for _, p := range ps.All() {
		for i := range p.W.Data {
			g := p.G.Data[i]
			if a.WeightDecay > 0 {
				p.W.Data[i] -= a.LR * a.WeightDecay * p.W.Data[i]
			}
			p.m.Data[i] = a.Beta1*p.m.Data[i] + (1-a.Beta1)*g
			p.v.Data[i] = a.Beta2*p.v.Data[i] + (1-a.Beta2)*g*g
			mhat := p.m.Data[i] / bc1
			vhat := p.v.Data[i] / bc2
			p.W.Data[i] -= a.LR * mhat / (math.Sqrt(vhat) + a.Eps)
		}
	}
}
