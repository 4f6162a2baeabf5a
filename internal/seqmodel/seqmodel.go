// Package seqmodel reimplements PragFormer (Harel et al., 2022), the
// token-based transformer baseline of Table 2: source tokens (no structure)
// are embedded, passed through transformer encoder blocks with multi-head
// self-attention, mean-pooled and classified. Identifiers are normalized
// (v1, v2, ... / f1 for callees) and literals bucketized exactly like the
// aug-AST attributes, so the representation comparison isolates structure —
// tokens versus graph — rather than vocabulary effects.
package seqmodel

import (
	"fmt"
	"math"

	"graph2par/internal/clex"
	"graph2par/internal/nn"
	"graph2par/internal/tensor"
)

// Tokenize converts loop source text to the normalized token strings the
// model consumes.
func Tokenize(src string) ([]string, error) {
	toks, err := clex.Tokenize(src)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(toks))
	varMap := map[string]string{}
	funcMap := map[string]string{}
	for i, t := range toks {
		switch t.Kind {
		case clex.Keyword, clex.Punct:
			out = append(out, t.Text)
		case clex.Ident:
			isFunc := i+1 < len(toks) && toks[i+1].Is("(")
			if isFunc {
				if _, ok := funcMap[t.Text]; !ok {
					funcMap[t.Text] = fmt.Sprintf("f%d", len(funcMap)+1)
				}
				out = append(out, funcMap[t.Text])
			} else {
				if _, ok := varMap[t.Text]; !ok {
					varMap[t.Text] = fmt.Sprintf("v%d", len(varMap)+1)
				}
				out = append(out, varMap[t.Text])
			}
		case clex.IntLit:
			out = append(out, "<int>")
		case clex.FloatLit:
			out = append(out, "<float>")
		case clex.CharLit:
			out = append(out, "<char>")
		case clex.StringLit:
			out = append(out, "<str>")
		case clex.PragmaLine, clex.DirectiveLn:
			// pragmas are labels, never inputs
		}
	}
	return out, nil
}

// Vocab maps token strings to IDs; 0 is <unk>.
type Vocab struct {
	IDs  map[string]int
	list []string
}

// NewVocab returns an empty vocabulary.
func NewVocab() *Vocab {
	return &Vocab{IDs: map[string]int{"<unk>": 0}, list: []string{"<unk>"}}
}

// Add registers every token of the sequence.
func (v *Vocab) Add(tokens []string) {
	for _, t := range tokens {
		if _, ok := v.IDs[t]; !ok {
			v.IDs[t] = len(v.list)
			v.list = append(v.list, t)
		}
	}
}

// Size returns the vocabulary size.
func (v *Vocab) Size() int { return len(v.list) }

// Encode maps tokens to IDs (0 for unknown).
func (v *Vocab) Encode(tokens []string) []int {
	out := make([]int, len(tokens))
	for i, t := range tokens {
		out[i] = v.IDs[t]
	}
	return out
}

// Config sets PragFormer hyperparameters.
type Config struct {
	Vocab   int
	Hidden  int
	Heads   int
	Layers  int
	FFN     int
	MaxLen  int
	Classes int
	Dropout float64
	Seed    uint64
}

// DefaultConfig returns the laptop-scale configuration.
func DefaultConfig(vocab int) Config {
	return Config{
		Vocab: vocab, Hidden: 48, Heads: 4, Layers: 2, FFN: 96,
		MaxLen: 192, Classes: 2, Dropout: 0.1, Seed: 29,
	}
}

type block struct {
	wq, wk, wv, wo *nn.Linear
	ffn1, ffn2     *nn.Linear
	ln1, ln2       *nn.LayerNormParams
}

// Model is the token transformer classifier.
type Model struct {
	Cfg    Config
	Params nn.ParamSet

	tokEmb *nn.Embedding
	posEmb *nn.Embedding
	blocks []*block
	headA  *nn.Linear
	headB  *nn.Linear
	rng    *tensor.RNG
}

// New builds a model.
func New(cfg Config) *Model {
	if cfg.Hidden%cfg.Heads != 0 {
		panic("seqmodel: hidden not divisible by heads")
	}
	rng := tensor.NewRNG(cfg.Seed)
	m := &Model{Cfg: cfg, rng: rng}
	d := cfg.Hidden
	m.tokEmb = nn.NewEmbedding(&m.Params, "tok", cfg.Vocab, d, rng)
	m.posEmb = nn.NewEmbedding(&m.Params, "pos", cfg.MaxLen, d, rng)
	for l := 0; l < cfg.Layers; l++ {
		b := &block{
			wq:   nn.NewLinear(&m.Params, fmt.Sprintf("b%d.wq", l), d, d, rng),
			wk:   nn.NewLinear(&m.Params, fmt.Sprintf("b%d.wk", l), d, d, rng),
			wv:   nn.NewLinear(&m.Params, fmt.Sprintf("b%d.wv", l), d, d, rng),
			wo:   nn.NewLinear(&m.Params, fmt.Sprintf("b%d.wo", l), d, d, rng),
			ffn1: nn.NewLinear(&m.Params, fmt.Sprintf("b%d.ffn1", l), d, cfg.FFN, rng),
			ffn2: nn.NewLinear(&m.Params, fmt.Sprintf("b%d.ffn2", l), cfg.FFN, d, rng),
			ln1:  nn.NewLayerNorm(&m.Params, fmt.Sprintf("b%d.ln1", l), d),
			ln2:  nn.NewLayerNorm(&m.Params, fmt.Sprintf("b%d.ln2", l), d),
		}
		m.blocks = append(m.blocks, b)
	}
	m.headA = nn.NewLinear(&m.Params, "head.a", d, d, rng)
	m.headB = nn.NewLinear(&m.Params, "head.b", d, cfg.Classes, rng)
	return m
}

// RNG exposes the model RNG for reproducible shuffling.
func (m *Model) RNG() *tensor.RNG { return m.rng }

// Forward computes logits (1×Classes) for one token-ID sequence. With
// train=true it draws dropout masks from the shared model RNG and must not
// overlap other Forward calls; training workers use LossRNG instead.
func (m *Model) Forward(g *nn.Graph, ids []int, train bool) *nn.Node {
	return m.forward(g, ids, train, m.rng)
}

// forward is Forward with an explicit dropout RNG (only consumed when
// train is true).
func (m *Model) forward(g *nn.Graph, ids []int, train bool, rng *tensor.RNG) *nn.Node {
	cfg := m.Cfg
	if len(ids) == 0 {
		ids = []int{0}
	}
	if len(ids) > cfg.MaxLen {
		ids = ids[:cfg.MaxLen]
	}
	clamped := make([]int, len(ids))
	for i, id := range ids {
		if id < 0 || id >= cfg.Vocab {
			id = 0
		}
		clamped[i] = id
	}
	pos := make([]int, len(ids))
	for i := range pos {
		pos[i] = i
	}
	x := g.Add(m.tokEmb.Lookup(g, clamped), m.posEmb.Lookup(g, pos))
	x = g.Dropout(x, cfg.Dropout, rng, train)

	dh := cfg.Hidden / cfg.Heads
	scale := 1 / math.Sqrt(float64(dh))

	for _, b := range m.blocks {
		// Multi-head self-attention (per head via column slices).
		q := b.wq.Apply(g, x)
		k := b.wk.Apply(g, x)
		v := b.wv.Apply(g, x)
		var headsOut *nn.Node
		for h := 0; h < cfg.Heads; h++ {
			qh := sliceCols(g, q, h*dh, dh)
			kh := sliceCols(g, k, h*dh, dh)
			vh := sliceCols(g, v, h*dh, dh)
			scores := g.Scale(matMulBT(g, qh, kh), scale) // T×T
			alpha := g.SoftmaxRows(scores)
			ctx := g.MatMul(alpha, vh) // T×dh
			if headsOut == nil {
				headsOut = ctx
			} else {
				headsOut = g.ConcatCols(headsOut, ctx)
			}
		}
		att := b.wo.Apply(g, headsOut)
		att = g.Dropout(att, cfg.Dropout, rng, train)
		x = b.ln1.Apply(g, g.Add(x, att))
		ff := b.ffn2.Apply(g, g.GELU(b.ffn1.Apply(g, x)))
		ff = g.Dropout(ff, cfg.Dropout, rng, train)
		x = b.ln2.Apply(g, g.Add(x, ff))
	}
	pooled := g.MeanRows(x)
	hidden := g.GELU(m.headA.Apply(g, pooled))
	hidden = g.Dropout(hidden, cfg.Dropout, rng, train)
	return m.headB.Apply(g, hidden)
}

// Predict returns argmax class and probabilities. It runs on an
// inference tape: no gradient bookkeeping, the same values as Forward on
// a training tape.
func (m *Model) Predict(ids []int) (int, []float64) {
	g := nn.NewInferenceGraph()
	logits := m.Forward(g, ids, false)
	probs := logits.Val.Clone()
	tensor.SoftmaxRows(probs)
	best, bestP := 0, probs.Data[0]
	for j := 1; j < probs.Cols; j++ {
		if probs.Data[j] > bestP {
			best, bestP = j, probs.Data[j]
		}
	}
	return best, probs.Data
}

// Loss builds the cross-entropy loss for one labeled sequence.
func (m *Model) Loss(g *nn.Graph, ids []int, label int, train bool) *nn.Node {
	logits := m.Forward(g, ids, train)
	loss, _ := g.SoftmaxCrossEntropy(logits, []int{label})
	return loss
}

// LossRNG is Loss in training mode with an explicit dropout RNG; it never
// touches the shared model RNG, so concurrent calls on separate tapes with
// separate RNGs are safe (see hgt.Model.LossRNG).
func (m *Model) LossRNG(g *nn.Graph, ids []int, label int, rng *tensor.RNG) *nn.Node {
	logits := m.forward(g, ids, true, rng)
	loss, _ := g.SoftmaxCrossEntropy(logits, []int{label})
	return loss
}

// sliceCols extracts a column band [start, start+width) as a new node.
func sliceCols(g *nn.Graph, x *nn.Node, start, width int) *nn.Node {
	// Implemented via matmul with a fixed selector matrix: cheap at our
	// scale and keeps autograd uniform.
	sel := tensor.New(x.Val.Cols, width)
	for j := 0; j < width; j++ {
		sel.Set(start+j, j, 1)
	}
	return g.MatMul(x, g.Constant(sel))
}

// matMulBT computes a·bᵀ with autograd (scores = Q·Kᵀ).
func matMulBT(g *nn.Graph, a, b *nn.Node) *nn.Node {
	return g.MatMulBT(a, b)
}
