package hgt

import (
	"math"
	"testing"

	"graph2par/internal/auggraph"
	"graph2par/internal/cparse"
	"graph2par/internal/nn"
	"graph2par/internal/tensor"
)

func buildEncoded(t *testing.T, src string, v *auggraph.Vocab) *auggraph.Encoded {
	t.Helper()
	s, err := cparse.ParseStmt(src)
	if err != nil {
		t.Fatal(err)
	}
	g := auggraph.Build(s, auggraph.Default())
	v.Add(g)
	return v.Encode(g)
}

func smallConfig(v *auggraph.Vocab) Config {
	cfg := DefaultConfig(v.NumKinds(), v.NumAttrs(), v.NumTypes())
	cfg.Hidden = 16
	cfg.Heads = 2
	cfg.Layers = 2
	cfg.Dropout = 0
	return cfg
}

func TestForwardShapesAndDeterminism(t *testing.T) {
	v := auggraph.NewVocab()
	enc := buildEncoded(t, "for (i = 0; i < n; i++) s += a[i];", v)
	m := New(smallConfig(v))

	g := nn.NewGraph()
	logits := m.Forward(g, enc, false)
	if logits.Val.Rows != 1 || logits.Val.Cols != 2 {
		t.Fatalf("logits shape %dx%d", logits.Val.Rows, logits.Val.Cols)
	}
	g2 := nn.NewGraph()
	logits2 := m.Forward(g2, enc, false)
	if !tensor.Equal(logits.Val, logits2.Val, 0) {
		t.Error("inference is not deterministic")
	}
	for _, x := range logits.Val.Data {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatalf("non-finite logit %v", x)
		}
	}
}

func TestSameSeedSameModel(t *testing.T) {
	v := auggraph.NewVocab()
	enc := buildEncoded(t, "for (i = 0; i < n; i++) a[i] = b[i];", v)
	m1 := New(smallConfig(v))
	m2 := New(smallConfig(v))
	p1, _ := m1.Predict(enc)
	p2, _ := m2.Predict(enc)
	if p1 != p2 {
		t.Error("same-seed models disagree")
	}
}

func TestGradientsFlowToAllParamGroups(t *testing.T) {
	v := auggraph.NewVocab()
	enc := buildEncoded(t, "for (i = 0; i < n; i++) { t = a[i]; b[i] = t * 2; }", v)
	m := New(smallConfig(v))
	m.Params.ZeroGrad()
	g := nn.NewGraph()
	loss := m.Loss(g, enc, 1, true)
	g.Backward(loss)

	// Embeddings, input proj, at least one per-kind linear per layer, edge
	// matrices of AST type, and the heads must all receive gradient.
	withGrad := map[string]bool{}
	for _, p := range m.Params.All() {
		var s float64
		for _, x := range p.G.Data {
			s += math.Abs(x)
		}
		if s > 0 {
			withGrad[p.Name] = true
		}
	}
	for _, want := range []string{"emb.kind", "emb.attr", "in.w", "head.a.w", "head.b.w", "l0.r0.watt", "l0.r0.wmsg", "l1.r0.watt"} {
		if !withGrad[want] {
			t.Errorf("no gradient reached %s", want)
		}
	}
}

func TestTrainingReducesLossOnToyTask(t *testing.T) {
	// Two structurally different loops with opposite labels; the model
	// must be able to overfit them.
	v := auggraph.NewVocab()
	encA := buildEncoded(t, "for (i = 0; i < n; i++) a[i] = b[i] + c[i];", v)
	encB := buildEncoded(t, "for (i = 1; i < n; i++) a[i] = a[i-1] * 2;", v)
	samples := []*auggraph.Encoded{encA, encB}
	labels := []int{1, 0}

	m := New(smallConfig(v))
	opt := nn.NewAdam(0.01)
	first, last := 0.0, 0.0
	for epoch := 0; epoch < 60; epoch++ {
		var total float64
		for i, enc := range samples {
			m.Params.ZeroGrad()
			g := nn.NewGraph()
			loss := m.Loss(g, enc, labels[i], true)
			g.Backward(loss)
			m.Params.ClipGrad(5)
			opt.Step(&m.Params)
			total += loss.Val.Data[0]
		}
		if epoch == 0 {
			first = total
		}
		last = total
	}
	if last >= first {
		t.Errorf("loss did not decrease: first %v last %v", first, last)
	}
	if last > 0.2 {
		t.Errorf("failed to overfit 2 samples: final loss %v", last)
	}
	if p, _ := m.Predict(encA); p != 1 {
		t.Error("sample A misclassified after overfitting")
	}
	if p, _ := m.Predict(encB); p != 0 {
		t.Error("sample B misclassified after overfitting")
	}
}

func TestUnknownVocabIDsHandled(t *testing.T) {
	v := auggraph.NewVocab()
	enc := buildEncoded(t, "for (i = 0; i < n; i++) s += a[i];", v)
	m := New(smallConfig(v))
	// Corrupt some IDs beyond the vocabulary: must clamp, not panic.
	enc.AttrIDs[0] = 9999
	enc.KindIDs[1] = -5
	g := nn.NewGraph()
	logits := m.Forward(g, enc, false)
	for _, x := range logits.Val.Data {
		if math.IsNaN(x) {
			t.Fatal("NaN logits with OOV ids")
		}
	}
}

func TestSingleNodeGraph(t *testing.T) {
	// A degenerate one-node graph (no edges) must still classify.
	v := auggraph.NewVocab()
	enc := buildEncoded(t, "for (i = 0; i < n; i++) s += a[i];", v)
	one := &auggraph.Encoded{
		KindIDs: enc.KindIDs[:1], AttrIDs: enc.AttrIDs[:1],
		TypeIDs: enc.TypeIDs[:1], Orders: enc.Orders[:1],
		Edges: nil, Root: 0,
	}
	m := New(smallConfig(v))
	g := nn.NewGraph()
	logits := m.Forward(g, one, false)
	if logits.Val.Cols != 2 {
		t.Fatal("bad logits")
	}
}

// batchSources is a mix of loop shapes (do-all, recurrence, reduction,
// while, privatizable temp, call) exercising different node counts, kinds
// and edge types in one batch.
var batchSources = []string{
	"for (i = 0; i < n; i++) s += a[i];",
	"for (i = 0; i < n; i++) a[i] = b[i] * 2;",
	"for (i = 1; i < n; i++) a[i] = a[i-1] + 1;",
	"while (i < n) { s += a[i]; i++; }",
	"for (i = 0; i < n; i++) { t = b[i]; a[i] = t * t; }",
	"for (j = 0; j < m; j++) c[j] = sqrt(b[j]);",
	"for (i = 0; i < n; i++) for (j = 0; j < m; j++) c[i] += a[i] * b[j];",
}

// TestPredictBatchBitIdenticalToPredict is the batched-inference
// acceptance check at the model layer: for batches of every size up to
// the full mixed corpus, PredictBatch must reproduce Predict's class and
// probabilities bit for bit, in every batch position.
func TestPredictBatchBitIdenticalToPredict(t *testing.T) {
	v := auggraph.NewVocab()
	encs := make([]*auggraph.Encoded, len(batchSources))
	for i, src := range batchSources {
		encs[i] = buildEncoded(t, src, v)
	}
	m := New(smallConfig(v))

	wantPred := make([]int, len(encs))
	wantProbs := make([][]float64, len(encs))
	for i, enc := range encs {
		wantPred[i], wantProbs[i] = m.Predict(enc)
	}

	for size := 1; size <= len(encs); size++ {
		preds, probs := m.PredictBatch(encs[:size])
		for i := 0; i < size; i++ {
			if preds[i] != wantPred[i] {
				t.Fatalf("batch size %d, graph %d: pred %d != %d", size, i, preds[i], wantPred[i])
			}
			for j := range wantProbs[i] {
				if probs[i][j] != wantProbs[i][j] {
					t.Fatalf("batch size %d, graph %d: prob[%d] %v != %v (batched inference drifted)",
						size, i, j, probs[i][j], wantProbs[i][j])
				}
			}
		}
	}

	// Reversed order: position in the batch must not matter.
	rev := make([]*auggraph.Encoded, len(encs))
	for i := range encs {
		rev[i] = encs[len(encs)-1-i]
	}
	preds, probs := m.PredictBatch(rev)
	for i := range rev {
		want := len(encs) - 1 - i
		if preds[i] != wantPred[want] {
			t.Fatalf("reversed batch, graph %d: pred mismatch", i)
		}
		for j := range wantProbs[want] {
			if probs[i][j] != wantProbs[want][j] {
				t.Fatalf("reversed batch, graph %d: prob drift", i)
			}
		}
	}
}

// TestPredictBatchHandlesEdgelessGraphs pins the fallback routing: a
// one-node graph (no edges) inside a batch must take Forward's structural
// fallback and still match its individual prediction exactly.
func TestPredictBatchHandlesEdgelessGraphs(t *testing.T) {
	v := auggraph.NewVocab()
	full := buildEncoded(t, "for (i = 0; i < n; i++) s += a[i];", v)
	lone := &auggraph.Encoded{
		KindIDs: full.KindIDs[:1], AttrIDs: full.AttrIDs[:1],
		TypeIDs: full.TypeIDs[:1], Orders: full.Orders[:1],
		Edges: nil, Root: 0,
	}
	m := New(smallConfig(v))

	wantLonePred, wantLoneProbs := m.Predict(lone)
	wantFullPred, wantFullProbs := m.Predict(full)

	preds, probs := m.PredictBatch([]*auggraph.Encoded{full, lone, full})
	for i, want := range []struct {
		pred  int
		probs []float64
	}{{wantFullPred, wantFullProbs}, {wantLonePred, wantLoneProbs}, {wantFullPred, wantFullProbs}} {
		if preds[i] != want.pred {
			t.Errorf("graph %d: pred %d != %d", i, preds[i], want.pred)
		}
		for j := range want.probs {
			if probs[i][j] != want.probs[j] {
				t.Errorf("graph %d: prob[%d] %v != %v", i, j, probs[i][j], want.probs[j])
			}
		}
	}

	// An all-edgeless batch must work too (everything routes to Forward).
	preds, _ = m.PredictBatch([]*auggraph.Encoded{lone, lone})
	if preds[0] != wantLonePred || preds[1] != wantLonePred {
		t.Error("all-edgeless batch misrouted")
	}

	// Empty batch: no work, no panic.
	preds, probs = m.PredictBatch(nil)
	if len(preds) != 0 || len(probs) != 0 {
		t.Error("empty batch should return empty results")
	}
}

// TestPredictBatchDuplicateGraphs checks that the same encoding may appear
// several times in one batch (two identical files analyzed in one engine
// call put the same loop into one batch twice) and each copy scores
// identically.
func TestPredictBatchDuplicateGraphs(t *testing.T) {
	v := auggraph.NewVocab()
	enc := buildEncoded(t, "for (i = 0; i < n; i++) a[i] = b[i] + c[i];", v)
	m := New(smallConfig(v))
	wantPred, wantProbs := m.Predict(enc)
	preds, probs := m.PredictBatch([]*auggraph.Encoded{enc, enc, enc, enc})
	for i := range preds {
		if preds[i] != wantPred {
			t.Errorf("copy %d: pred %d != %d", i, preds[i], wantPred)
		}
		for j := range wantProbs {
			if probs[i][j] != wantProbs[j] {
				t.Errorf("copy %d: prob[%d] drifted", i, j)
			}
		}
	}
	// Returned probability slices must be detached from each other.
	probs[0][0] = 42
	if probs[1][0] == 42 {
		t.Error("batch probability rows share backing storage")
	}
}

func TestParamCountScale(t *testing.T) {
	v := auggraph.NewVocab()
	buildEncoded(t, "for (i = 0; i < n; i++) s += a[i];", v)
	m := New(smallConfig(v))
	n := m.Params.NumParams()
	if n < 10_000 || n > 5_000_000 {
		t.Errorf("parameter count %d outside expected band", n)
	}
}
