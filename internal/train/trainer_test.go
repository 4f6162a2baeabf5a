package train

import (
	"bytes"
	"os"
	"testing"
)

// trainedCheckpointBytes trains a model on the shared tiny corpus with the
// worker count baked into opts and returns the serialized checkpoint bytes.
func trainedCheckpointBytes(t *testing.T, opts Options) []byte {
	t.Helper()
	tr, _ := corpusSplit(t)
	trainSet := PrepareGraphs(tr, opts.Graph, nil, ParallelLabel)
	model := TrainHGT(trainSet, opts)
	path := t.TempDir() + "/w.ckpt"
	if err := SaveCheckpoint(path, model, trainSet.Vocab, opts.Graph); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestTrainingBitIdenticalAcrossWorkerCounts is the tentpole invariant of
// data-parallel training: the same seed and data produce a byte-identical
// checkpoint for Workers ∈ {1, 4} (and an off-by-one 3 to catch
// batch-boundary assumptions). This is the training analogue of the
// PredictBatch ≡ Predict bit-identity guarantee.
func TestTrainingBitIdenticalAcrossWorkerCounts(t *testing.T) {
	opts := tinyOpts()
	opts.Epochs = 2
	opts.Workers = 1
	ref := trainedCheckpointBytes(t, opts)
	for _, w := range []int{3, 4} {
		o := opts
		o.Workers = w
		got := trainedCheckpointBytes(t, o)
		if !bytes.Equal(ref, got) {
			t.Fatalf("checkpoint with %d workers differs from 1-worker checkpoint", w)
		}
	}
}

// TestTrainSeqDeterministicAcrossWorkerCounts extends the invariant to the
// PragFormer loop: identical predictions (weights are not serialized for
// the baseline, so predictions over the train set stand in).
func TestTrainSeqDeterministicAcrossWorkerCounts(t *testing.T) {
	tr, te := corpusSplit(t)
	opts := tinyOpts()
	opts.Epochs = 2
	trainSet := PrepareSeqs(tr, nil, ParallelLabel)
	testSet := PrepareSeqs(te, trainSet.Vocab, ParallelLabel)

	run := func(workers int) []float64 {
		o := opts
		o.Workers = workers
		m := TrainSeq(trainSet, o)
		var out []float64
		for _, ids := range testSet.IDs {
			_, probs := m.Predict(ids)
			out = append(out, probs...)
		}
		return out
	}
	a, b := run(1), run(4)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seq prediction prob %d differs between 1 and 4 workers: %v vs %v", i, a[i], b[i])
		}
	}
}
