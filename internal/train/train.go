// Package train drives model training and evaluation over OMP_Serial
// samples: aug-AST graph preparation with a train-side vocabulary, epoch
// loops with gradient accumulation and clipping for the HGT (Graph2Par and
// its vanilla-AST ablation) and for the PragFormer token baseline, and
// confusion-matrix evaluation.
package train

import (
	"fmt"

	"graph2par/internal/auggraph"
	"graph2par/internal/dataset"
	"graph2par/internal/hgt"
	"graph2par/internal/metrics"
	"graph2par/internal/nn"
	"graph2par/internal/parallel"
	"graph2par/internal/seqmodel"
	"graph2par/internal/tensor"
)

// LabelFunc maps a sample to its class (e.g. parallel = 1).
type LabelFunc func(*dataset.Sample) int

// ParallelLabel is the pragma-existence task of Tables 2–4.
//
//graph2lint:noalloc
func ParallelLabel(s *dataset.Sample) int {
	if s.Parallel {
		return 1
	}
	return 0
}

// CategoryLabel builds the per-pragma task of Table 5.
func CategoryLabel(cat string) LabelFunc {
	return func(s *dataset.Sample) int {
		if s.Parallel && s.Category == cat {
			return 1
		}
		return 0
	}
}

// Options bundles the knobs shared by both trainers.
type Options struct {
	Epochs    int
	BatchSize int
	LR        float64
	Hidden    int
	Heads     int
	Layers    int
	Seed      uint64
	// Graph selects the aug-AST configuration (Default vs VanillaAST).
	Graph auggraph.Options
	// Verbose prints per-epoch loss to stdout.
	Verbose bool
	// ValFrac > 0 holds out that fraction of the training set for early
	// stopping; Patience epochs without validation-accuracy improvement
	// stop training and restore the best weights.
	ValFrac  float64
	Patience int
	// Workers bounds the data-parallel gradient workers per minibatch
	// (< 1 → GOMAXPROCS). Training is deterministic in the strongest
	// sense: the same seed and data produce bit-identical weights at ANY
	// worker count — see the invariants documented in trainer.go.
	Workers int
}

// DefaultOptions returns the laptop-scale training configuration.
func DefaultOptions() Options {
	return Options{
		Epochs: 6, BatchSize: 8, LR: 3e-3,
		Hidden: 48, Heads: 4, Layers: 2,
		Seed:  101,
		Graph: auggraph.Default(),
	}
}

// ---------------------------------------------------------------------------
// graph pipeline (Graph2Par / HGT-AST)

// GraphSet holds encoded graphs ready for the HGT.
type GraphSet struct {
	Encoded []*auggraph.Encoded
	Labels  []int
	Samples []*dataset.Sample
	Vocab   *auggraph.Vocab
}

// PrepareGraphs builds aug-ASTs for the samples. When vocab is nil a new
// vocabulary is built from these samples (training side); otherwise the
// existing vocabulary is reused (test side, OOV → <unk>). It is
// PrepareGraphsN with a GOMAXPROCS-sized worker pool.
func PrepareGraphs(samples []*dataset.Sample, opts auggraph.Options, vocab *auggraph.Vocab, label LabelFunc) *GraphSet {
	return PrepareGraphsN(0, samples, opts, vocab, label)
}

// PrepareGraphsN is PrepareGraphs with an explicit worker-pool bound
// (workers < 1 → GOMAXPROCS). Graph construction and encoding run over
// the pool; the vocabulary is grown serially in sample order between the
// two phases, so the IDs — and therefore the whole GraphSet — are
// identical to a serial run.
func PrepareGraphsN(workers int, samples []*dataset.Sample, opts auggraph.Options, vocab *auggraph.Vocab, label LabelFunc) *GraphSet {
	building := vocab == nil
	if building {
		vocab = auggraph.NewVocab()
	}
	gs := &GraphSet{Vocab: vocab}

	// Phase 1 (parallel): build one graph per sample into its own slot.
	// Each worker reuses one aug-AST builder (maps, CFG scratch, symbol
	// table) across its samples; BuildDetached hands back exact-size
	// graphs the set may retain forever while the builder's working
	// storage is recycled sample over sample.
	built := make([]*auggraph.Graph, len(samples))
	builders := make([]*auggraph.Builder, parallel.Workers(workers))
	parallel.ForEachWorker(workers, len(samples), func(w, i int) {
		b := builders[w]
		if b == nil {
			b = auggraph.NewBuilder()
			builders[w] = b
		}
		s := samples[i]
		o := opts
		if s.File != nil {
			o.Funcs = s.File.DefinedFuncs()
		}
		built[i] = b.BuildDetached(s.Loop, o)
	})

	// Phase 2 (serial): drop empty graphs and grow the vocabulary in
	// sample order — insertion order defines the IDs.
	graphs := make([]*auggraph.Graph, 0, len(samples))
	kept := make([]*dataset.Sample, 0, len(samples))
	for i, g := range built {
		if len(g.Nodes) == 0 {
			continue
		}
		graphs = append(graphs, g)
		kept = append(kept, samples[i])
		if building {
			vocab.Add(g)
		}
	}

	// Phase 3 (parallel): encode under the now-frozen vocabulary.
	gs.Encoded = make([]*auggraph.Encoded, len(graphs))
	parallel.ForEach(workers, len(graphs), func(i int) {
		gs.Encoded[i] = vocab.Encode(graphs[i])
	})
	gs.Labels = make([]int, len(kept))
	gs.Samples = make([]*dataset.Sample, len(kept))
	for i, s := range kept {
		gs.Labels[i] = label(s)
		gs.Samples[i] = s
	}
	return gs
}

// TrainHGT trains a Graph2Par model on the set, optionally with
// validation-based early stopping. Gradient computation is data-parallel
// over Options.Workers goroutines with bit-identical results at any worker
// count; see HGTTrainer for the epoch-level API (trajectories).
func TrainHGT(train *GraphSet, opts Options) *hgt.Model {
	t := NewHGTTrainer(train, opts)
	for !t.Done() {
		loss := t.RunEpoch()
		if opts.Verbose {
			fmt.Printf("  [hgt] epoch %d/%d loss %.4f\n", t.Epoch(), opts.Epochs, loss)
		}
		if t.EarlyStopped() && opts.Verbose {
			fmt.Printf("  [hgt] early stop at epoch %d (best val acc %.4f)\n", t.Epoch(), t.BestValAcc())
		}
	}
	return t.Finish()
}

func snapshotWeights(ps *nn.ParamSet) [][]float64 {
	out := make([][]float64, 0, len(ps.All()))
	for _, p := range ps.All() {
		out = append(out, append([]float64(nil), p.W.Data...))
	}
	return out
}

//graph2lint:noalloc
func restoreWeights(ps *nn.ParamSet, weights [][]float64) {
	for i, p := range ps.All() {
		copy(p.W.Data, weights[i])
	}
}

// EvalHGT computes the confusion matrix of the model over the set with a
// GOMAXPROCS-sized worker pool.
func EvalHGT(model *hgt.Model, set *GraphSet) *metrics.Confusion {
	return EvalHGTN(0, model, set)
}

// EvalHGTN is EvalHGT with an explicit worker-pool bound. Inference fans
// out over the pool (Predict is concurrency-safe); the confusion counts
// are accumulated serially afterwards.
func EvalHGTN(workers int, model *hgt.Model, set *GraphSet) *metrics.Confusion {
	preds := PredictHGTN(workers, model, set)
	var c metrics.Confusion
	for i, p := range preds {
		c.Add(p, set.Labels[i] == 1)
	}
	return &c
}

// PredictHGT returns per-sample predictions (true = parallel) with a
// GOMAXPROCS-sized worker pool.
func PredictHGT(model *hgt.Model, set *GraphSet) []bool {
	return PredictHGTN(0, model, set)
}

// PredictHGTN is PredictHGT with an explicit worker-pool bound (workers
// < 1 → GOMAXPROCS); predictions are computed concurrently over the pool.
func PredictHGTN(workers int, model *hgt.Model, set *GraphSet) []bool {
	out := make([]bool, len(set.Encoded))
	parallel.ForEach(workers, len(set.Encoded), func(i int) {
		pred, _ := model.Predict(set.Encoded[i])
		out[i] = pred == 1
	})
	return out
}

// ---------------------------------------------------------------------------
// token pipeline (PragFormer)

// SeqSet holds encoded token sequences.
type SeqSet struct {
	IDs     [][]int
	Labels  []int
	Samples []*dataset.Sample
	Vocab   *seqmodel.Vocab
}

// PrepareSeqs tokenizes samples; vocab semantics mirror PrepareGraphs.
func PrepareSeqs(samples []*dataset.Sample, vocab *seqmodel.Vocab, label LabelFunc) *SeqSet {
	building := vocab == nil
	if building {
		vocab = seqmodel.NewVocab()
	}
	ss := &SeqSet{Vocab: vocab}
	toks := make([][]string, 0, len(samples))
	kept := make([]*dataset.Sample, 0, len(samples))
	for _, s := range samples {
		tk, err := seqmodel.Tokenize(s.LoopSrc)
		if err != nil || len(tk) == 0 {
			continue
		}
		toks = append(toks, tk)
		kept = append(kept, s)
		if building {
			vocab.Add(tk)
		}
	}
	for i, tk := range toks {
		ss.IDs = append(ss.IDs, vocab.Encode(tk))
		ss.Labels = append(ss.Labels, label(kept[i]))
		ss.Samples = append(ss.Samples, kept[i])
	}
	return ss
}

// TrainSeq trains the PragFormer baseline with the same deterministic
// data-parallel minibatch scheme as TrainHGT: per-example dropout seeds
// drawn serially, worker-private gradients, fixed-order reduction — the
// same seed produces bit-identical weights at any Options.Workers.
func TrainSeq(train *SeqSet, opts Options) *seqmodel.Model {
	cfg := seqmodel.DefaultConfig(train.Vocab.Size())
	cfg.Hidden = opts.Hidden
	cfg.Heads = opts.Heads
	cfg.Layers = opts.Layers
	cfg.FFN = 2 * opts.Hidden
	cfg.Seed = opts.Seed
	model := seqmodel.New(cfg)
	optzr := nn.NewAdam(opts.LR)
	pool := nn.NewScratchPool(&model.Params)
	workers := parallel.Workers(opts.Workers)

	bs := opts.BatchSize
	if bs < 1 {
		bs = 1
	}
	rng := model.RNG()
	for epoch := 0; epoch < opts.Epochs; epoch++ {
		perm := rng.Perm(len(train.IDs))
		var total float64
		model.Params.ZeroGrad()
		for start := 0; start < len(perm); start += bs {
			end := start + bs
			if end > len(perm) {
				end = len(perm)
			}
			total += batchStep(workers, &model.Params, pool, rng, perm[start:end],
				func(g *nn.Graph, idx int, r *tensor.RNG) *nn.Node {
					return model.LossRNG(g, train.IDs[idx], train.Labels[idx], r)
				})
			model.Params.ClipGrad(5)
			optzr.Step(&model.Params)
			model.Params.ZeroGrad()
		}
		if opts.Verbose {
			fmt.Printf("  [seq] epoch %d/%d loss %.4f\n", epoch+1, opts.Epochs, total/float64(len(train.IDs)))
		}
	}
	return model
}

// EvalSeq computes the confusion matrix of the baseline over the set.
func EvalSeq(model *seqmodel.Model, set *SeqSet) *metrics.Confusion {
	var c metrics.Confusion
	for i, ids := range set.IDs {
		pred, _ := model.Predict(ids)
		c.Add(pred == 1, set.Labels[i] == 1)
	}
	return &c
}
