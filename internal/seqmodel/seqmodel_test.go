package seqmodel

import (
	"math"
	"reflect"
	"testing"

	"graph2par/internal/nn"
	"graph2par/internal/tensor"
)

func TestTokenizeNormalization(t *testing.T) {
	toks, err := Tokenize("for (i = 0; i < n; i++) sum += fabs(a[i]);")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"for", "(", "v1", "=", "<int>", ";", "v1", "<", "v2", ";", "v1", "++", ")", "v3", "+=", "f1", "(", "v4", "[", "v1", "]", ")", ";"}
	if !reflect.DeepEqual(toks, want) {
		t.Errorf("got  %v\nwant %v", toks, want)
	}
}

func TestTokenizeStableAcrossRenames(t *testing.T) {
	a, _ := Tokenize("for (i = 0; i < n; i++) s += a[i];")
	b, _ := Tokenize("for (x = 0; x < len; x++) total += buf[x];")
	if !reflect.DeepEqual(a, b) {
		t.Errorf("renamed variants tokenize differently:\n%v\n%v", a, b)
	}
}

func TestTokenizeDropsPragmas(t *testing.T) {
	toks, _ := Tokenize("#pragma omp parallel for\nfor (i = 0; i < n; i++) x++;")
	for _, tok := range toks {
		if tok == "#pragma omp parallel for" || tok == "pragma" {
			t.Fatal("pragma leaked into model input (label leakage)")
		}
	}
}

func TestVocabRoundTrip(t *testing.T) {
	v := NewVocab()
	toks, _ := Tokenize("for (i = 0; i < n; i++) s += a[i];")
	v.Add(toks)
	ids := v.Encode(toks)
	for i, id := range ids {
		if id == 0 {
			t.Errorf("token %q mapped to <unk> after Add", toks[i])
		}
	}
	unknown := v.Encode([]string{"neverseen"})
	if unknown[0] != 0 {
		t.Error("unknown token should map to 0")
	}
}

func smallConfig(vocab int) Config {
	cfg := DefaultConfig(vocab)
	cfg.Hidden = 16
	cfg.Heads = 2
	cfg.FFN = 32
	cfg.Layers = 2
	cfg.MaxLen = 64
	cfg.Dropout = 0
	return cfg
}

func TestForwardFiniteAndDeterministic(t *testing.T) {
	v := NewVocab()
	toks, _ := Tokenize("for (i = 0; i < n; i++) s += a[i];")
	v.Add(toks)
	m := New(smallConfig(v.Size()))
	ids := v.Encode(toks)
	p1, probs := m.Predict(ids)
	p2, _ := m.Predict(ids)
	if p1 != p2 {
		t.Error("prediction not deterministic")
	}
	var sum float64
	for _, p := range probs {
		if math.IsNaN(p) {
			t.Fatal("NaN prob")
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("probs sum to %v", sum)
	}
}

// TestPredictMatchesTrainingTape: Predict runs on an inference tape, and
// its probabilities must equal a training-tape Forward's bit for bit.
func TestPredictMatchesTrainingTape(t *testing.T) {
	v := NewVocab()
	srcs := []string{
		"for (i = 0; i < n; i++) s += a[i];",
		"for (i = 1; i < n; i++) a[i] = a[i-1] * 2;",
		"while (i < n) { t = b[i]; c[i] = t * t; i++; }",
	}
	var seqs [][]int
	for _, src := range srcs {
		toks, _ := Tokenize(src)
		v.Add(toks)
		seqs = append(seqs, v.Encode(toks))
	}
	m := New(smallConfig(v.Size()))
	for i, ids := range seqs {
		_, probs := m.Predict(ids)
		want := m.Forward(nn.NewGraph(), ids, false).Val.Clone()
		tensor.SoftmaxRows(want)
		for j := range want.Data {
			if probs[j] != want.Data[j] {
				t.Fatalf("sequence %d: prob[%d] = %v on the inference tape, %v on a training tape", i, j, probs[j], want.Data[j])
			}
		}
	}
}

func TestTruncationAndEmpty(t *testing.T) {
	v := NewVocab()
	m := New(smallConfig(8))
	long := make([]int, 500)
	if p, _ := m.Predict(long); p != 0 && p != 1 {
		t.Error("bad class for long input")
	}
	if p, _ := m.Predict(nil); p != 0 && p != 1 {
		t.Error("bad class for empty input")
	}
	_ = v
}

func TestOverfitsToyPair(t *testing.T) {
	v := NewVocab()
	tA, _ := Tokenize("for (i = 0; i < n; i++) a[i] = b[i] + c[i];")
	tB, _ := Tokenize("for (i = 1; i < n; i++) a[i] = a[i-1] * 2;")
	v.Add(tA)
	v.Add(tB)
	m := New(smallConfig(v.Size()))
	samples := [][]int{v.Encode(tA), v.Encode(tB)}
	labels := []int{1, 0}
	opt := nn.NewAdam(0.01)
	var last float64
	for epoch := 0; epoch < 80; epoch++ {
		last = 0
		for i, ids := range samples {
			m.Params.ZeroGrad()
			g := nn.NewGraph()
			loss := m.Loss(g, ids, labels[i], true)
			g.Backward(loss)
			m.Params.ClipGrad(5)
			opt.Step(&m.Params)
			last += loss.Val.Data[0]
		}
	}
	if last > 0.2 {
		t.Errorf("failed to overfit: loss %v", last)
	}
	if p, _ := m.Predict(samples[0]); p != 1 {
		t.Error("A misclassified")
	}
	if p, _ := m.Predict(samples[1]); p != 0 {
		t.Error("B misclassified")
	}
}
