// Package hgt implements the Heterogeneous Graph Transformer (Hu et al.,
// WWW 2020) used by Graph2Par, adapted as the paper describes: temporal
// encoding disabled and inductive timestamp assignment deactivated, since
// aug-AST graphs are static.
//
// Per layer, the three HGT components of section 5.2 are implemented
// faithfully:
//
//   - Heterogeneous Mutual Attention: node-type-specific Key and Query
//     projections; a per-edge-type W_ATT mixes the Key before the per-head
//     dot product with the Query; attention is softmax-normalized over ALL
//     incoming edges of each target node (formula 2);
//   - Heterogeneous Message Passing: node-type-specific Value projection
//     mixed by a per-edge-type W_MSG (formula 3);
//   - Target-Specific Aggregation: attention-weighted message sum, passed
//     through a nonlinearity and a target-node-type-specific A-Linear, with
//     a residual connection to the previous layer (formulas 4 and 5).
package hgt

import (
	"fmt"
	"math"
	"sync"

	"graph2par/internal/auggraph"
	"graph2par/internal/nn"
	"graph2par/internal/tensor"
)

// Config sets model hyperparameters.
type Config struct {
	Hidden  int // hidden width d
	Heads   int // attention heads h (d must be divisible by h)
	Layers  int // HGT layers
	Classes int // output classes
	Dropout float64
	// NumKinds / NumAttrs / NumTypes are vocabulary sizes from the
	// training corpus.
	NumKinds, NumAttrs, NumTypes int
	// EdgeTypes is the number of heterogeneous edge types (usually
	// auggraph.NumEdgeTypes).
	EdgeTypes int
	Seed      uint64
}

// DefaultConfig returns the laptop-scale configuration used by the
// experiment harness.
func DefaultConfig(numKinds, numAttrs, numTypes int) Config {
	return Config{
		Hidden: 48, Heads: 4, Layers: 2, Classes: 2, Dropout: 0.1,
		NumKinds: numKinds, NumAttrs: numAttrs, NumTypes: numTypes,
		EdgeTypes: int(auggraph.NumEdgeTypes), Seed: 17,
	}
}

// layerParams holds one HGT layer's parameters.
type layerParams struct {
	// per node kind: Key, Query, Value (message) and A-Linear projections
	key, query, value, aLinear []*nn.Linear
	// per edge type: attention and message mixing matrices plus the
	// learnable relation prior mu
	wAtt, wMsg []*nn.Param
	mu         []*nn.Param
	norm       *nn.LayerNormParams
}

// Model is the Graph2Par HGT classifier.
//
// Concurrency: a built (or loaded) Model is safe for concurrent inference.
// Predict and Forward with train=false only read the parameter matrices —
// the autodiff tape lives in the per-call nn.Graph, dropout is a no-op
// outside training, and nothing touches the model RNG. The two mutating
// paths MUST be serialized with each other and with inference: Forward
// with train=true draws dropout masks from the shared RNG, and
// Graph.Backward/optimizer steps write the shared gradient and weight
// matrices. In short: train from one goroutine, then predict from as many
// as you like.
type Model struct {
	Cfg    Config
	Params nn.ParamSet

	kindEmb  *nn.Embedding
	attrEmb  *nn.Embedding
	typeEmb  *nn.Embedding
	orderEmb *nn.Embedding
	inProj   *nn.Linear
	layers   []*layerParams
	headA    *nn.Linear // classifier hidden
	headB    *nn.Linear // classifier output

	rng *tensor.RNG

	// infArenas recycles per-call inference-tape arenas across Predict and
	// PredictBatch calls: the tape's intermediate buffers are the dominant
	// allocation volume of a forward pass, and after a few requests every
	// recurring shape is served from a parked buffer. Each arena is owned
	// by exactly one in-flight call (sync.Pool hands it to one goroutine),
	// and reclaimed buffers are zeroed, so pooling can never change a
	// predicted bit.
	infArenas sync.Pool
}

// New builds a model with freshly initialized parameters.
func New(cfg Config) *Model {
	if cfg.Hidden%cfg.Heads != 0 {
		panic(fmt.Sprintf("hgt: hidden %d not divisible by heads %d", cfg.Hidden, cfg.Heads))
	}
	rng := tensor.NewRNG(cfg.Seed)
	m := &Model{Cfg: cfg, rng: rng}
	d := cfg.Hidden

	m.kindEmb = nn.NewEmbedding(&m.Params, "emb.kind", cfg.NumKinds, d, rng)
	m.attrEmb = nn.NewEmbedding(&m.Params, "emb.attr", cfg.NumAttrs, d, rng)
	m.typeEmb = nn.NewEmbedding(&m.Params, "emb.type", cfg.NumTypes, d, rng)
	m.orderEmb = nn.NewEmbedding(&m.Params, "emb.order", auggraph.MaxOrder+1, d, rng)
	m.inProj = nn.NewLinear(&m.Params, "in", d, d, rng)

	for l := 0; l < cfg.Layers; l++ {
		lp := &layerParams{}
		for k := 0; k < cfg.NumKinds; k++ {
			lp.key = append(lp.key, nn.NewLinear(&m.Params, fmt.Sprintf("l%d.k%d.key", l, k), d, d, rng))
			lp.query = append(lp.query, nn.NewLinear(&m.Params, fmt.Sprintf("l%d.k%d.query", l, k), d, d, rng))
			lp.value = append(lp.value, nn.NewLinear(&m.Params, fmt.Sprintf("l%d.k%d.value", l, k), d, d, rng))
			lp.aLinear = append(lp.aLinear, nn.NewLinear(&m.Params, fmt.Sprintf("l%d.k%d.alin", l, k), d, d, rng))
		}
		for r := 0; r < cfg.EdgeTypes; r++ {
			wa := nn.NewParam(fmt.Sprintf("l%d.r%d.watt", l, r), d, d, rng)
			wm := nn.NewParam(fmt.Sprintf("l%d.r%d.wmsg", l, r), d, d, rng)
			mu := nn.NewParamOnes(fmt.Sprintf("l%d.r%d.mu", l, r), 1, 1)
			m.Params.Register(wa, wm, mu)
			lp.wAtt = append(lp.wAtt, wa)
			lp.wMsg = append(lp.wMsg, wm)
			lp.mu = append(lp.mu, mu)
		}
		lp.norm = nn.NewLayerNorm(&m.Params, fmt.Sprintf("l%d.norm", l), d)
		m.layers = append(m.layers, lp)
	}
	m.headA = nn.NewLinear(&m.Params, "head.a", 2*d, d, rng)
	m.headB = nn.NewLinear(&m.Params, "head.b", d, cfg.Classes, rng)
	return m
}

// RNG exposes the model's RNG (dropout and shuffling share it so runs are
// reproducible from Config.Seed). The RNG is NOT safe for concurrent use;
// it belongs to the single-goroutine training loop.
func (m *Model) RNG() *tensor.RNG { return m.rng }

// clampID maps out-of-vocabulary ids to the reserved <unk> slot.
//
//graph2lint:noalloc
func clampID(id, n int) int {
	if id < 0 || id >= n {
		return 0
	}
	return id
}

// Forward computes class logits (1×Classes) for one encoded aug-AST. It
// runs as a one-element ForwardBatch: a single implementation keeps the
// Predict/PredictBatch bit-identity invariant structural rather than
// maintained by hand.
//
// With train=false it is safe to call concurrently (each call must use its
// own Graph); with train=true it consumes the shared model RNG for dropout
// and must not overlap other Forward calls (training workers use LossRNG
// with a per-example RNG instead).
func (m *Model) Forward(g *nn.Graph, enc *auggraph.Encoded, train bool) *nn.Node {
	return m.forwardBatch(g, []*auggraph.Encoded{enc}, train, m.rng)
}

// typedEdges counts the edges of enc whose type is a valid model edge
// type; edges outside [0, EdgeTypes) are skipped by the forward pass.
//
//graph2lint:noalloc
func typedEdges(enc *auggraph.Encoded, edgeTypes int) int {
	n := 0
	for _, e := range enc.Edges {
		if t := int(e.Type); t >= 0 && t < edgeTypes {
			n++
		}
	}
	return n
}

// ForwardBatch computes class logits (B×Classes) for a batch of encoded
// aug-ASTs in one forward pass over their disjoint union: node features of
// all graphs are stacked into one matrix, edge lists are offset so the
// adjacency stays block-diagonal, attention segments never cross graph
// boundaries, and the readout pools each graph's own row segment. Because
// every op in the stack computes output rows independently (or accumulates
// per attention segment in list order), row b of the result is
// bit-identical to Forward on encs[b] alone — batching changes dispatch
// cost, never the answer.
//
// Every graph must be non-empty and have at least one typed edge, as
// every loop's aug-AST does (its AST edges); ForwardBatch panics on any
// other graph. Like Forward, train=false calls are safe for concurrent
// use.
func (m *Model) ForwardBatch(g *nn.Graph, encs []*auggraph.Encoded, train bool) *nn.Node {
	return m.forwardBatch(g, encs, train, m.rng)
}

// forwardBatch is ForwardBatch with an explicit dropout RNG.
func (m *Model) forwardBatch(g *nn.Graph, encs []*auggraph.Encoded, train bool, rng *tensor.RNG) *nn.Node {
	if len(encs) == 0 {
		panic("hgt: empty batch")
	}
	cfg := m.Cfg

	// Disjoint-union assembly: graph b's node i becomes batch row
	// offs[b]+i, so per-graph node order (and therefore every accumulation
	// order downstream) is preserved.
	offs := make([]int, len(encs))
	total := 0
	for b, enc := range encs {
		if len(enc.KindIDs) == 0 {
			panic("hgt: empty graph")
		}
		if typedEdges(enc, cfg.EdgeTypes) == 0 {
			panic("hgt: ForwardBatch requires every graph to have a typed edge")
		}
		offs[b] = total
		total += len(enc.KindIDs)
	}
	kinds := make([]int, total)
	attrs := make([]int, total)
	types := make([]int, total)
	orders := make([]int, total)
	seg := make([]int, total) // batch row → graph index
	roots := make([]int, len(encs))
	for b, enc := range encs {
		for i := range enc.KindIDs {
			r := offs[b] + i
			kinds[r] = clampID(enc.KindIDs[i], cfg.NumKinds)
			attrs[r] = clampID(enc.AttrIDs[i], cfg.NumAttrs)
			types[r] = clampID(enc.TypeIDs[i], cfg.NumTypes)
			orders[r] = clampID(enc.Orders[i], auggraph.MaxOrder+1)
			seg[r] = b
		}
		roots[b] = offs[b] + encs[b].Root
	}

	h := g.Add(
		g.Add(m.kindEmb.Lookup(g, kinds), m.attrEmb.Lookup(g, attrs)),
		g.Add(m.typeEmb.Lookup(g, types), m.orderEmb.Lookup(g, orders)),
	)
	h = m.inProj.Apply(g, h)
	h = g.Dropout(h, cfg.Dropout, rng, train)

	// Group the union's nodes by kind and its offset edges by type. The
	// edge order within one type is (graph, per-graph edge order), so each
	// target node's incoming edges keep the relative order they have in a
	// single-graph pass — the invariant the segment softmax and scatter
	// accumulations need for bit-identical results.
	byKind := make([][]int, cfg.NumKinds)
	for r, k := range kinds {
		byKind[k] = append(byKind[k], r)
	}
	byEdgeType := make([][]auggraph.Edge, cfg.EdgeTypes)
	for b, enc := range encs {
		for _, e := range enc.Edges {
			t := int(e.Type)
			if t < 0 || t >= cfg.EdgeTypes {
				continue
			}
			byEdgeType[t] = append(byEdgeType[t], auggraph.Edge{
				Src: e.Src + offs[b], Dst: e.Dst + offs[b], Type: e.Type,
			})
		}
	}

	scale := 1 / math.Sqrt(float64(cfg.Hidden/cfg.Heads))

	for _, lp := range m.layers {
		projK := m.perKind(g, h, byKind, lp.key, total)
		projQ := m.perKind(g, h, byKind, lp.query, total)
		projV := m.perKind(g, h, byKind, lp.value, total)

		var allDst []int
		var scoreParts, msgParts []*nn.Node
		for r := 0; r < cfg.EdgeTypes; r++ {
			es := byEdgeType[r]
			if len(es) == 0 {
				continue
			}
			src := make([]int, len(es))
			dst := make([]int, len(es))
			for i, e := range es {
				src[i] = e.Src
				dst[i] = e.Dst
			}
			kSrc := g.GatherRows(projK, src)
			kMix := g.MatMul(kSrc, g.Param(lp.wAtt[r]))
			qDst := g.GatherRows(projQ, dst)
			score := g.RowDotHeads(kMix, qDst, cfg.Heads)
			muV := lp.mu[r].W.Data[0]
			score = g.Scale(score, scale*muV)
			vSrc := g.GatherRows(projV, src)
			msg := g.MatMul(vSrc, g.Param(lp.wMsg[r]))
			allDst = append(allDst, dst...)
			scoreParts = append(scoreParts, score)
			msgParts = append(msgParts, msg)
		}
		scores := g.ConcatRows(scoreParts...)
		msgs := g.ConcatRows(msgParts...)

		alpha := g.SegmentSoftmax(scores, allDst, total)
		weighted := g.HeadScale(msgs, alpha, cfg.Heads)
		agg := g.ScatterRowsAdd(weighted, allDst, total)

		upd := m.perKind(g, g.GELU(agg), byKind, lp.aLinear, total)
		upd = g.Dropout(upd, cfg.Dropout, rng, train)
		h = lp.norm.Apply(g, g.Add(upd, h))
	}

	// Batched readout: per-graph mean over each graph's own row segment,
	// concatenated with that graph's loop-root row.
	mean := g.SegmentMeanRows(h, seg, len(encs))
	root := g.GatherRows(h, roots)
	pooled := g.ConcatCols(mean, root)
	hidden := g.GELU(m.headA.Apply(g, pooled))
	hidden = g.Dropout(hidden, cfg.Dropout, rng, train)
	return m.headB.Apply(g, hidden)
}

// perKind applies the kind-specific linear to each node group and
// reassembles an N×d matrix. The groups partition the rows, so the
// projections are placed directly with AssembleRows — one O(N×d) pass no
// matter how many kinds are present, which keeps wide inference batches
// (whose kind union is large) from paying a per-kind matrix chain.
func (m *Model) perKind(g *nn.Graph, h *nn.Node, byKind [][]int, linears []*nn.Linear, n int) *nn.Node {
	var parts []*nn.Node
	var idxs [][]int
	for k, idx := range byKind {
		if len(idx) == 0 {
			continue
		}
		sub := g.GatherRows(h, idx)
		parts = append(parts, linears[k].Apply(g, sub))
		idxs = append(idxs, idx)
	}
	if len(parts) == 0 {
		panic("hgt: no nodes")
	}
	return g.AssembleRows(parts, idxs, n)
}

// inferenceTape checks an arena out of the model's pool and starts an
// inference tape over it; done frees the tape (recycling its buffers) and
// returns the arena. Nothing drawn from the tape may escape past done —
// Predict/PredictBatch copy their probabilities out first.
func (m *Model) inferenceTape() (g *nn.Graph, done func()) {
	a, _ := m.infArenas.Get().(*nn.Arena)
	if a == nil {
		a = nn.NewArena()
	}
	g = nn.NewInferenceGraphArena(a)
	return g, func() {
		g.Free()
		m.infArenas.Put(a)
	}
}

// Predict returns the argmax class and class probabilities for one graph.
// It is safe for concurrent use (see the Model doc).
func (m *Model) Predict(enc *auggraph.Encoded) (int, []float64) {
	g, done := m.inferenceTape()
	defer done()
	logits := m.Forward(g, enc, false)
	probs := logits.Val.Clone()
	tensor.SoftmaxRows(probs)
	return tensor.ArgMaxRows(probs)[0], probs.Data
}

// PredictBatch returns the argmax class and class probabilities for every
// graph of the batch, scored in one ForwardBatch pass. The results are
// bit-identical to calling Predict per graph — the batched forward only
// amortizes per-graph op dispatch — so callers may freely mix batched and
// single-graph inference (the invariant the engine's analysis cache and
// its size-bucketed batching rely on). Safe for concurrent use, like
// Predict.
func (m *Model) PredictBatch(encs []*auggraph.Encoded) ([]int, [][]float64) {
	preds := make([]int, len(encs))
	probs := make([][]float64, len(encs))
	if len(encs) == 0 {
		return preds, probs
	}
	g, done := m.inferenceTape()
	defer done()
	logits := m.ForwardBatch(g, encs, false)
	p := logits.Val.Clone()
	tensor.SoftmaxRows(p)
	for i, c := range tensor.ArgMaxRows(p) {
		preds[i] = c
		probs[i] = append([]float64(nil), p.Row(i)...)
	}
	return preds, probs
}

// Loss computes the cross-entropy loss node for one labeled graph.
func (m *Model) Loss(g *nn.Graph, enc *auggraph.Encoded, label int, train bool) *nn.Node {
	logits := m.Forward(g, enc, train)
	loss, _ := g.SoftmaxCrossEntropy(logits, []int{label})
	return loss
}

// LossRNG is Loss in training mode with an explicit dropout RNG. It never
// touches the shared model RNG, so concurrent calls on separate tapes with
// separate RNGs are safe — the hook data-parallel training uses to give
// every in-flight example its own deterministic dropout stream.
func (m *Model) LossRNG(g *nn.Graph, enc *auggraph.Encoded, label int, rng *tensor.RNG) *nn.Node {
	logits := m.forwardBatch(g, []*auggraph.Encoded{enc}, true, rng)
	loss, _ := g.SoftmaxCrossEntropy(logits, []int{label})
	return loss
}
