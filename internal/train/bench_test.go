package train

import (
	"runtime"
	"sync"
	"testing"

	"graph2par/internal/dataset"
)

// The TrainEpoch benchmark pair is the training half of BENCH_pr4.json: CI
// runs both on every push and gates on the within-run Parallel/Serial
// ratio, so data-parallel training cannot quietly lose its speedup.

var (
	benchTrainSet     *GraphSet
	benchTrainSetOnce sync.Once
)

// trainBenchSet prepares a shared small corpus once; graph preparation cost
// stays out of the timed epoch loops.
func trainBenchSet() *GraphSet {
	benchTrainSetOnce.Do(func() {
		opts := benchTrainOpts()
		c := dataset.Generate(dataset.Config{Scale: 0.012, Seed: 4242})
		benchTrainSet = PrepareGraphs(c.Samples, opts.Graph, nil, ParallelLabel)
	})
	return benchTrainSet
}

func benchTrainOpts() Options {
	o := DefaultOptions()
	o.Hidden = 32
	o.Heads = 4
	o.Layers = 2
	o.Seed = 99
	return o
}

// benchmarkTrainEpoch times one full training epoch (forward, backward,
// fixed-order gradient reduction, clip, Adam) at the given worker count.
// Both variants run the identical deterministic schedule — the trainer
// produces the same weights either way — so the ns/op ratio isolates the
// data-parallel speedup.
func benchmarkTrainEpoch(b *testing.B, workers int) {
	set := trainBenchSet()
	if len(set.Encoded) < 32 {
		b.Fatalf("bench corpus too small: %d graphs", len(set.Encoded))
	}
	opts := benchTrainOpts()
	opts.Workers = workers
	opts.Epochs = 1 << 30 // the trainer must never report Done mid-bench
	trainer := NewHGTTrainer(set, opts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if trainer.RunEpoch() == 0 {
			b.Fatal("epoch reported zero loss; nothing was trained")
		}
	}
}

// BenchmarkTrainEpochSerial is the Workers=1 baseline.
func BenchmarkTrainEpochSerial(b *testing.B) { benchmarkTrainEpoch(b, 1) }

// BenchmarkTrainEpochParallel shards minibatches over a full GOMAXPROCS
// worker pool; the ratio to Serial is the measured training speedup.
func BenchmarkTrainEpochParallel(b *testing.B) {
	benchmarkTrainEpoch(b, runtime.GOMAXPROCS(0))
}
