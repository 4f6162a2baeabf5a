package train

import (
	"graph2par/internal/hgt"
	"graph2par/internal/metrics"
	"graph2par/internal/nn"
	"graph2par/internal/parallel"
	"graph2par/internal/tensor"
)

// This file implements deterministic data-parallel training: each
// minibatch's examples are sharded across Options.Workers goroutines, and
// the result is bit-identical for ANY worker count — the training analogue
// of the batched-inference invariant (hgt.PredictBatch ≡ Predict). Three
// decisions make that hold:
//
//  1. Per-example dropout RNGs. The serial loop drew dropout masks from the
//     shared model RNG in visit order, which no concurrent schedule can
//     reproduce. Instead, the trainer serially Splits one independent
//     generator per example (in minibatch order) off the master RNG before
//     dispatch; each worker draws its masks from its own stream. Every
//     consumption of the master RNG therefore happens on the single
//     coordinating goroutine, in a schedule-independent order.
//  2. Worker-private gradients. Each in-flight example backpropagates into
//     its own nn.LocalGrads (recycled through an nn.ScratchPool, so the
//     gradient sets and the tape's matrix buffers — the dominant per-step
//     allocations — are reused across steps), never into the shared
//     Param.G.
//  3. Fixed-order reduction. After the batch's workers finish, the
//     coordinator folds the per-example gradients into Param.G in minibatch
//     example order (ParamSet.Accumulate), clips once, and applies one Adam
//     step. The floating-point reduction tree is pinned by (example order ×
//     registration order), independent of which goroutine computed what.
//
// The loss each worker computes is itself schedule-independent: the tensor
// kernels run on the calling goroutine and accumulate in ascending order
// (see internal/tensor), so a forward/backward pass is a pure function of
// (weights, example, seed).

// batchStep runs one minibatch data-parallel. It first Splits one dropout
// RNG per example off the master generator — serially, in minibatch order,
// so the schedule is fixed before any worker runs — then fans the examples
// out over workers goroutines, each computing loss and gradients on a
// pooled worker tape via lossFn, and finally reduces the gradients in
// example order. It returns the summed loss. This is the one place the
// determinism-critical seeding and reduction schedule lives; both the HGT
// and the seqmodel loop step through it.
func batchStep(workers int, ps *nn.ParamSet, pool *nn.ScratchPool, master *tensor.RNG, idxs []int,
	lossFn func(g *nn.Graph, idx int, rng *tensor.RNG) *nn.Node) float64 {
	rngs := make([]*tensor.RNG, len(idxs))
	for k := range idxs {
		rngs[k] = master.Split()
	}
	scratches := make([]*nn.Scratch, len(idxs))
	losses := make([]float64, len(idxs))
	parallel.ForEach(workers, len(idxs), func(k int) {
		s := pool.Get()
		g := s.NewGraph()
		loss := lossFn(g, idxs[k], rngs[k])
		g.Backward(loss)
		losses[k] = loss.Val.Data[0]
		g.Free()
		scratches[k] = s
	})
	var total float64
	for k, s := range scratches {
		ps.Accumulate(s.Grads)
		pool.Put(s)
		total += losses[k]
	}
	return total
}

// HGTTrainer drives epoch-by-epoch Graph2Par training with data-parallel
// gradient computation. It exposes the loop's state so callers can record
// per-epoch trajectories (experiments.Appendix), checkpoint mid-run
// (State + SaveCheckpointState) and resume bit-identically
// (ResumeHGTTrainer). TrainHGT remains the one-call wrapper.
type HGTTrainer struct {
	Model *hgt.Model

	set     *GraphSet
	opts    Options
	optzr   *nn.Adam
	rng     *tensor.RNG
	pool    *nn.ScratchPool
	workers int
	bs      int

	epoch       int
	trainIdx    []int
	valIdx      []int
	bestAcc     float64
	sinceBest   int
	bestWeights [][]float64
	stopped     bool
}

// NewHGTTrainer builds a fresh model over the set's vocabulary and prepares
// the training loop (including the validation split when early stopping is
// configured).
func NewHGTTrainer(set *GraphSet, opts Options) *HGTTrainer {
	cfg := hgt.DefaultConfig(set.Vocab.NumKinds(), set.Vocab.NumAttrs(), set.Vocab.NumTypes())
	cfg.Hidden = opts.Hidden
	cfg.Heads = opts.Heads
	cfg.Layers = opts.Layers
	cfg.Seed = opts.Seed
	model := hgt.New(cfg)

	t := newHGTTrainerFor(model, set, opts)
	t.trainIdx = make([]int, len(set.Encoded))
	for i := range t.trainIdx {
		t.trainIdx[i] = i
	}
	if opts.ValFrac > 0 && opts.Patience > 0 && len(t.trainIdx) >= 10 {
		nVal := int(float64(len(t.trainIdx)) * opts.ValFrac)
		if nVal < 1 {
			nVal = 1
		}
		perm := t.rng.Perm(len(t.trainIdx))
		t.valIdx = perm[:nVal]
		t.trainIdx = perm[nVal:]
	}
	return t
}

// newHGTTrainerFor wires the loop mechanics shared by fresh and resumed
// trainers.
func newHGTTrainerFor(model *hgt.Model, set *GraphSet, opts Options) *HGTTrainer {
	bs := opts.BatchSize
	if bs < 1 {
		bs = 1
	}
	return &HGTTrainer{
		Model:   model,
		set:     set,
		opts:    opts,
		optzr:   nn.NewAdam(opts.LR),
		rng:     model.RNG(),
		pool:    nn.NewScratchPool(&model.Params),
		workers: parallel.Workers(opts.Workers),
		bs:      bs,
		bestAcc: -1,
	}
}

// ResumeHGTTrainer continues training from a checkpointed TrainState: the
// model carries the saved weights (LoadCheckpointFull), st carries the
// optimizer moments, the RNG position and the loop bookkeeping. set must be
// the same GraphSet (same samples, same order, same vocabulary) the
// interrupted run trained on — the state's index lists refer into it. A
// resumed run finishes with weights byte-identical to an uninterrupted one,
// at any worker count on either side of the interruption.
func ResumeHGTTrainer(model *hgt.Model, set *GraphSet, opts Options, st *TrainState) *HGTTrainer {
	t := newHGTTrainerFor(model, set, opts)
	t.epoch = st.Epoch
	t.optzr.SetSteps(st.AdamSteps)
	for i, p := range model.Params.All() {
		p.SetMoments(st.AdamM[i], st.AdamV[i])
	}
	t.rng.Restore(st.RNG)
	t.trainIdx = append([]int(nil), st.TrainIdx...)
	t.valIdx = append([]int(nil), st.ValIdx...)
	t.bestAcc = st.BestAcc
	t.sinceBest = st.SinceBest
	t.stopped = st.Stopped
	if st.BestWeights != nil {
		t.bestWeights = make([][]float64, len(st.BestWeights))
		for i, w := range st.BestWeights {
			t.bestWeights[i] = append([]float64(nil), w...)
		}
	}
	return t
}

// Epoch returns how many epochs have completed.
func (t *HGTTrainer) Epoch() int { return t.epoch }

// Done reports whether training is over (epoch budget spent or early
// stopping triggered).
func (t *HGTTrainer) Done() bool {
	return t.stopped || t.epoch >= t.opts.Epochs
}

// EarlyStopped reports whether the patience budget ran out.
func (t *HGTTrainer) EarlyStopped() bool { return t.stopped }

// BestValAcc returns the best validation accuracy seen (-1 without a
// validation split).
func (t *HGTTrainer) BestValAcc() float64 { return t.bestAcc }

// RunEpoch trains one epoch and returns its mean training loss. The epoch
// schedule — shuffle, minibatch boundaries, per-example dropout seeds,
// gradient reduction order, clip, Adam step — is identical for every
// worker count; only wall-clock time changes.
func (t *HGTTrainer) RunEpoch() float64 {
	if t.Done() {
		return 0
	}
	perm := t.rng.Perm(len(t.trainIdx))
	var total float64
	t.Model.Params.ZeroGrad()
	for start := 0; start < len(perm); start += t.bs {
		end := start + t.bs
		if end > len(perm) {
			end = len(perm)
		}
		idxs := make([]int, end-start)
		for k := range idxs {
			idxs[k] = t.trainIdx[perm[start+k]]
		}
		total += batchStep(t.workers, &t.Model.Params, t.pool, t.rng, idxs,
			func(g *nn.Graph, idx int, rng *tensor.RNG) *nn.Node {
				return t.Model.LossRNG(g, t.set.Encoded[idx], t.set.Labels[idx], rng)
			})
		t.Model.Params.ClipGrad(5)
		t.optzr.Step(&t.Model.Params)
		t.Model.Params.ZeroGrad()
	}
	t.epoch++

	if len(t.valIdx) > 0 {
		preds := make([]bool, len(t.valIdx))
		parallel.ForEach(t.workers, len(t.valIdx), func(i int) {
			pred, _ := t.Model.Predict(t.set.Encoded[t.valIdx[i]])
			preds[i] = pred == 1
		})
		var c metrics.Confusion
		for i, p := range preds {
			c.Add(p, t.set.Labels[t.valIdx[i]] == 1)
		}
		if acc := c.Accuracy(); acc > t.bestAcc {
			t.bestAcc = acc
			t.sinceBest = 0
			t.bestWeights = snapshotWeights(&t.Model.Params)
		} else if t.sinceBest++; t.sinceBest >= t.opts.Patience {
			t.stopped = true
		}
	}
	if len(t.trainIdx) == 0 {
		return 0
	}
	return total / float64(len(t.trainIdx))
}

// Finish restores the best validation weights (when early stopping tracked
// any) and returns the model.
func (t *HGTTrainer) Finish() *hgt.Model {
	if t.bestWeights != nil {
		restoreWeights(&t.Model.Params, t.bestWeights)
	}
	return t.Model
}

// State snapshots everything RunEpoch depends on besides the GraphSet, so
// training can be checkpointed between epochs and resumed bit-identically.
func (t *HGTTrainer) State() *TrainState {
	params := t.Model.Params.All()
	st := &TrainState{
		Epoch:     t.epoch,
		AdamSteps: t.optzr.Steps(),
		AdamM:     make([][]float64, len(params)),
		AdamV:     make([][]float64, len(params)),
		RNG:       t.rng.Snapshot(),
		TrainIdx:  append([]int(nil), t.trainIdx...),
		ValIdx:    append([]int(nil), t.valIdx...),
		BestAcc:   t.bestAcc,
		SinceBest: t.sinceBest,
		Stopped:   t.stopped,
	}
	for i, p := range params {
		st.AdamM[i], st.AdamV[i] = p.Moments()
	}
	if t.bestWeights != nil {
		st.BestWeights = make([][]float64, len(t.bestWeights))
		for i, w := range t.bestWeights {
			st.BestWeights[i] = append([]float64(nil), w...)
		}
	}
	return st
}

// TrainState is the serializable between-epochs snapshot of an HGTTrainer:
// optimizer moments and step count, the master RNG position, the
// train/validation index split and the early-stopping bookkeeping. Saved
// into checkpoints by SaveCheckpointState.
type TrainState struct {
	Epoch     int
	AdamSteps int
	AdamM     [][]float64
	AdamV     [][]float64
	RNG       tensor.RNGState
	TrainIdx  []int
	ValIdx    []int
	BestAcc   float64
	SinceBest int
	Stopped   bool
	// BestWeights mirrors the early-stopping weight snapshot (nil when no
	// validation improvement has been recorded yet).
	BestWeights [][]float64
}
