package dataset

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graph2par/internal/cast"
	"graph2par/internal/cinterp"
	"graph2par/internal/depend"
	"graph2par/internal/pragma"
	"graph2par/internal/tensor"
)

func smallCorpus(t *testing.T) *Corpus {
	t.Helper()
	return Generate(Config{Scale: 0.02, Seed: 7})
}

func TestGenerateParsesEverything(t *testing.T) {
	c := smallCorpus(t)
	if len(c.Samples) == 0 {
		t.Fatal("empty corpus")
	}
	if c.Dropped > len(c.Samples)/10 {
		t.Errorf("dropped %d of %d candidates — generator emits unparsable code", c.Dropped, len(c.Samples)+c.Dropped)
	}
	for _, s := range c.Samples {
		if s.Loop == nil {
			t.Fatalf("sample %d has no parsed loop", s.ID)
		}
		switch s.Loop.(type) {
		case *cast.For, *cast.While:
		default:
			t.Fatalf("sample %d loop type %T", s.ID, s.Loop)
		}
	}
}

func TestLabelsConsistentWithPragmas(t *testing.T) {
	c := smallCorpus(t)
	for _, s := range c.Samples {
		if s.Parallel != (s.Pragma != "") {
			t.Fatalf("sample %d: Parallel=%v but pragma %q", s.ID, s.Parallel, s.Pragma)
		}
		if !s.Parallel {
			continue
		}
		info := pragma.Parse(s.Pragma)
		if !info.ParallelFor {
			t.Errorf("sample %d pragma %q is not loop worksharing", s.ID, s.Pragma)
		}
		// Category must match the parsed pragma taxonomy. The "private"
		// row also covers plain do-all pragmas (Table 1 labels the
		// synthetic do-all block "private (do-all)").
		if s.Category != "" && s.Category != "private" {
			want := pragma.Category(s.Category)
			if !info.Has(want) {
				t.Errorf("sample %d category %q not carried by pragma %q", s.ID, s.Category, s.Pragma)
			}
		}
	}
}

func TestLoopSrcHasNoPragma(t *testing.T) {
	c := smallCorpus(t)
	for _, s := range c.Samples {
		if strings.Contains(s.LoopSrc, "#pragma") {
			t.Fatalf("sample %d leaks its label into LoopSrc", s.ID)
		}
	}
}

func TestDistributionRoughlyMatchesTable1(t *testing.T) {
	c := Generate(Config{Scale: 0.05, Seed: 11})
	st := c.ComputeStats()
	// Ratio checks, not absolute counts: private is the biggest parallel
	// class; non-parallel outnumbers every single parallel class.
	get := func(k string) int {
		if cs := st.ByKey[k]; cs != nil {
			return cs.Loops
		}
		return 0
	}
	priv := get("github/private")
	red := get("github/reduction")
	simd := get("github/simd")
	targ := get("github/target")
	nonp := get("github/non-parallel")
	if !(priv > red && red > simd && simd > targ) {
		t.Errorf("category ordering broken: private=%d reduction=%d simd=%d target=%d", priv, red, simd, targ)
	}
	if nonp <= priv {
		t.Errorf("non-parallel (%d) should dominate private (%d)", nonp, priv)
	}
	// SIMD loops are the shortest on average (Table 1: 2.65 LOC).
	simdLOC := st.ByKey["github/simd"].AvgLOC()
	privLOC := st.ByKey["github/private"].AvgLOC()
	if simdLOC >= privLOC {
		t.Errorf("simd avg LOC %.2f should be below private %.2f", simdLOC, privLOC)
	}
	// Synthetic block exists with both labels.
	if get("synthetic/reduction") == 0 || get("synthetic/private") == 0 || get("synthetic/non-parallel") == 0 {
		t.Error("synthetic rows missing")
	}
}

func TestRunnableSamplesActuallyRun(t *testing.T) {
	c := smallCorpus(t)
	ran, failed := 0, 0
	for _, s := range c.Samples {
		if !s.Runnable {
			continue
		}
		in := cinterp.New(s.File)
		in.MaxSteps = 3_000_000
		if _, err := in.Run(); err != nil {
			failed++
			if failed <= 3 {
				t.Logf("sample %d failed to run: %v\n%s", s.ID, err, s.FileSrc)
			}
		} else {
			ran++
		}
	}
	if ran == 0 {
		t.Fatal("no runnable samples executed")
	}
	if failed > ran/5 {
		t.Errorf("%d of %d runnable programs failed to interpret", failed, ran+failed)
	}
}

func TestGroundTruthAgainstInterpreterOracle(t *testing.T) {
	// Dynamic oracle: for runnable for-loop samples, replay the trace and
	// check that "parallel" samples have no unexplained inter-iteration
	// dependences and "non-parallel" samples have at least one (excluding
	// the loop control variable and declared reductions).
	c := Generate(Config{Scale: 0.03, Seed: 23})
	checked := 0
	for _, s := range c.Samples {
		if !s.Runnable {
			continue
		}
		loop, ok := s.Loop.(*cast.For)
		if !ok {
			continue
		}
		// Early-exit loops are non-parallel for ordering reasons the
		// memory trace cannot see; the oracle does not apply.
		if len(depend.LoopExits(loop.Body)) > 0 {
			continue
		}
		// Developer-noise samples are deliberately mislabeled (parallel
		// loops without pragma): the oracle would — correctly — disagree.
		if s.Mislabeled {
			continue
		}
		deps, ok := traceDeps(t, s, loop)
		if !ok {
			continue
		}
		checked++
		if s.Parallel && deps {
			t.Errorf("sample %d labeled parallel but trace shows dependence:\n%s%s", s.ID, s.Pragma+"\n", s.LoopSrc)
		}
		if !s.Parallel && !deps {
			t.Errorf("sample %d labeled non-parallel but trace is clean:\n%s", s.ID, s.LoopSrc)
		}
	}
	if checked < 10 {
		t.Fatalf("oracle checked only %d samples", checked)
	}
}

// traceDeps runs the sample and reports whether its loop profile shows an
// inter-iteration dependence beyond the loop control and the pragma's
// reduction and private variables.
func traceDeps(t *testing.T, s *Sample, loop *cast.For) (bool, bool) {
	t.Helper()
	in := cinterp.New(s.File)
	in.MaxSteps = 3_000_000
	in.TraceLoop = loop

	info := pragma.Parse(s.Pragma)
	var exempt []string
	for _, vars := range info.ReductionOps {
		exempt = append(exempt, vars...)
	}
	exempt = append(exempt, info.PrivateVars...)
	if iv := depend.ExtractLoop(loop).IndVar; iv != "" {
		exempt = append(exempt, iv)
	}
	for _, name := range exempt {
		in.Watch = append(in.Watch, cinterp.Watch{Name: name, Role: cinterp.Exempt})
	}
	if _, err := in.Run(); err != nil {
		return false, false
	}
	for _, c := range in.Profile.Cells {
		if c.Shared {
			return true, true
		}
	}
	return false, true
}

func TestSplitDeterministicAndDisjoint(t *testing.T) {
	c := smallCorpus(t)
	tr1, te1 := c.Split(0.2, 99)
	tr2, te2 := c.Split(0.2, 99)
	if len(tr1) != len(tr2) || len(te1) != len(te2) {
		t.Fatal("split not deterministic")
	}
	if len(te1) == 0 || len(tr1) == 0 {
		t.Fatal("degenerate split")
	}
	seen := map[int]bool{}
	for _, s := range tr1 {
		seen[s.ID] = true
	}
	for _, s := range te1 {
		if seen[s.ID] {
			t.Fatal("train/test overlap")
		}
	}
	if len(tr1)+len(te1) != len(c.Samples) {
		t.Error("split loses samples")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	c := smallCorpus(t)
	path := filepath.Join(t.TempDir(), "omp_serial.json")
	if err := c.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Samples) != len(c.Samples) {
		t.Fatalf("loaded %d, want %d", len(loaded.Samples), len(c.Samples))
	}
	for i := range c.Samples {
		if loaded.Samples[i].LoopSrc != c.Samples[i].LoopSrc {
			t.Fatal("loop source changed in round trip")
		}
		if loaded.Samples[i].Loop == nil {
			t.Fatal("loaded sample not re-parsed")
		}
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{Scale: 0.01, Seed: 5})
	b := Generate(Config{Scale: 0.01, Seed: 5})
	if len(a.Samples) != len(b.Samples) {
		t.Fatal("sizes differ")
	}
	for i := range a.Samples {
		if a.Samples[i].LoopSrc != b.Samples[i].LoopSrc || a.Samples[i].Pragma != b.Samples[i].Pragma {
			t.Fatalf("sample %d differs across same-seed runs", i)
		}
	}
	c := Generate(Config{Scale: 0.01, Seed: 6})
	same := 0
	for i := range a.Samples {
		if i < len(c.Samples) && a.Samples[i].LoopSrc == c.Samples[i].LoopSrc {
			same++
		}
	}
	if same == len(a.Samples) {
		t.Error("different seeds produced identical corpora")
	}
}

func TestCoverageFlagProportions(t *testing.T) {
	c := Generate(Config{Scale: 0.08, Seed: 3})
	var runnable, compilable, github int
	for _, s := range c.Samples {
		if s.Origin != "github" {
			continue
		}
		github++
		if s.Runnable {
			runnable++
		}
		if s.Compilable {
			compilable++
		}
	}
	rFrac := float64(runnable) / float64(github)
	cFrac := float64(compilable) / float64(github)
	if rFrac < 0.10 || rFrac > 0.30 {
		t.Errorf("runnable fraction %.2f outside band", rFrac)
	}
	if cFrac < 0.55 || cFrac > 0.85 {
		t.Errorf("compilable fraction %.2f outside band", cFrac)
	}
	if cFrac <= rFrac {
		t.Error("compilable must include runnable and more")
	}
}

func TestNamerNoCollisions(t *testing.T) {
	nm := newNamer(tensor.NewRNG(1))
	seen := map[string]bool{}
	for i := 0; i < 300; i++ {
		n := nm.fresh(scalarNames)
		if seen[n] {
			t.Fatalf("collision on %q", n)
		}
		seen[n] = true
	}
}
