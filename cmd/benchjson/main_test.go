package main

import (
	"fmt"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: graph2par
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkAnalyzeFilesSerial   	       3	 262319703 ns/op
BenchmarkAnalyzeFilesParallel-8	       3	 282402152 ns/op
BenchmarkAnalyzeFilesBatched  	       3	 262529111 ns/op
BenchmarkAnalyzeFilesCached   	       3	   1279871.5 ns/op
PASS
ok  	graph2par	12.738s
`

func TestParse(t *testing.T) {
	s, err := parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if s.Goos != "linux" || s.Goarch != "amd64" || s.Pkg != "graph2par" {
		t.Errorf("metadata = %q/%q/%q", s.Goos, s.Goarch, s.Pkg)
	}
	if len(s.Benchmarks) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4", len(s.Benchmarks))
	}
	// The -8 GOMAXPROCS suffix must be stripped so keys are stable.
	got, ok := s.Benchmarks["BenchmarkAnalyzeFilesParallel"]
	if !ok {
		t.Fatal("GOMAXPROCS suffix not stripped")
	}
	if got.N != 3 || got.NsPerOp != 282402152 {
		t.Errorf("Parallel = %+v", got)
	}
	if frac := s.Benchmarks["BenchmarkAnalyzeFilesCached"].NsPerOp; frac != 1279871.5 {
		t.Errorf("fractional ns/op parsed as %v", frac)
	}
}

func TestParseIgnoresNoise(t *testing.T) {
	s, err := parse(strings.NewReader("unrelated line\nBenchmarkX notanumber ns/op\nPASS\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Benchmarks) != 0 {
		t.Errorf("noise parsed as benchmarks: %v", s.Benchmarks)
	}
}

func TestGate(t *testing.T) {
	base := &Summary{Benchmarks: map[string]Result{
		"BenchmarkAnalyzeFilesBatched": {N: 3, NsPerOp: 100_000},
	}}
	run := func(ns float64) *Summary {
		return &Summary{Benchmarks: map[string]Result{
			"BenchmarkAnalyzeFilesBatched": {N: 3, NsPerOp: ns},
		}}
	}

	// Within tolerance: +19% passes at 20%.
	if _, err := gate(run(119_000), base, "BenchmarkAnalyzeFilesBatched", 20); err != nil {
		t.Errorf("19%% regression should pass at 20%% tolerance: %v", err)
	}
	// Faster than baseline passes trivially.
	if _, err := gate(run(50_000), base, "BenchmarkAnalyzeFilesBatched", 20); err != nil {
		t.Errorf("speedup should pass: %v", err)
	}
	// Beyond tolerance fails.
	if _, err := gate(run(121_000), base, "BenchmarkAnalyzeFilesBatched", 20); err == nil {
		t.Error("21% regression should fail at 20% tolerance")
	}
	// Gate benchmark missing from the current run is an error.
	if _, err := gate(&Summary{Benchmarks: map[string]Result{}}, base, "BenchmarkAnalyzeFilesBatched", 20); err == nil {
		t.Error("missing current measurement should fail")
	}
	// Missing from the baseline is a warning, not a failure, so a new
	// benchmark can land with its first baseline.
	msg, err := gate(run(100), &Summary{Benchmarks: map[string]Result{}}, "BenchmarkAnalyzeFilesBatched", 20)
	if err != nil {
		t.Errorf("missing baseline should be skipped: %v", err)
	}
	if !strings.Contains(msg, "skipped") {
		t.Errorf("skip verdict should say so: %q", msg)
	}
}

func TestGateRatio(t *testing.T) {
	run := &Summary{Benchmarks: map[string]Result{
		"BenchmarkAnalyzeFilesBatched":  {N: 3, NsPerOp: 90_000},
		"BenchmarkAnalyzeFilesParallel": {N: 3, NsPerOp: 100_000},
	}}
	spec := "BenchmarkAnalyzeFilesBatched/BenchmarkAnalyzeFilesParallel"

	// 0.9 ratio passes at 1.0 and at 1.1.
	for _, max := range []float64{1.0, 1.1} {
		if _, err := gateRatio(run, spec, max); err != nil {
			t.Errorf("ratio 0.9 should pass at %.1f: %v", max, err)
		}
	}
	// Batched slower than allowed fails.
	run.Benchmarks["BenchmarkAnalyzeFilesBatched"] = Result{N: 3, NsPerOp: 120_000}
	if _, err := gateRatio(run, spec, 1.1); err == nil {
		t.Error("ratio 1.2 should fail at 1.1")
	}
	// Malformed spec and missing benchmarks are errors.
	if _, err := gateRatio(run, "NoSlash", 1); err == nil {
		t.Error("spec without a slash should fail")
	}
	if _, err := gateRatio(run, "BenchmarkMissing/BenchmarkAnalyzeFilesParallel", 1); err == nil {
		t.Error("missing numerator should fail")
	}
}

// TestGateRatioInlineBound covers the "<=MAX" per-spec syntax: the inline
// bound wins over the default, and a malformed bound is an error.
func TestGateRatioInlineBound(t *testing.T) {
	run := &Summary{Benchmarks: map[string]Result{
		"BenchmarkTrainEpochParallel": {N: 3, NsPerOp: 80_000},
		"BenchmarkTrainEpochSerial":   {N: 3, NsPerOp: 100_000},
	}}
	spec := "BenchmarkTrainEpochParallel/BenchmarkTrainEpochSerial"

	// ratio 0.8: passes at inline <=0.9 even with a default bound of 0.1.
	if _, err := gateRatio(run, spec+"<=0.9", 0.1); err != nil {
		t.Errorf("inline bound should override default: %v", err)
	}
	// ...and fails at inline <=0.5 even with a permissive default.
	if _, err := gateRatio(run, spec+"<=0.5", 10); err == nil {
		t.Error("inline bound 0.5 should fail ratio 0.8")
	}
	if _, err := gateRatio(run, spec+"<=notanumber", 1); err == nil {
		t.Error("malformed inline bound should fail")
	}
}

const sampleBenchmemOutput = `goos: linux
pkg: graph2par
BenchmarkFrontendPipeline-4      	      20	   1520976 ns/op	  220698 B/op	    1933 allocs/op
BenchmarkFrontendPipelineFresh   	      20	   3346187 ns/op	 4107216 B/op	   13858 allocs/op
BenchmarkAnalyzeFilesSerial      	       3	 234000000 ns/op
PASS
`

// TestParseBenchmem covers the optional -benchmem columns.
func TestParseBenchmem(t *testing.T) {
	s, err := parse(strings.NewReader(sampleBenchmemOutput))
	if err != nil {
		t.Fatal(err)
	}
	got := s.Benchmarks["BenchmarkFrontendPipeline"]
	if got.NsPerOp != 1520976 || got.BPerOp != 220698 || got.AllocsPerOp != 1933 {
		t.Errorf("benchmem row = %+v", got)
	}
	// A plain row still parses, with zero mem columns.
	if r := s.Benchmarks["BenchmarkAnalyzeFilesSerial"]; r.NsPerOp != 234000000 || r.AllocsPerOp != 0 {
		t.Errorf("plain row = %+v", r)
	}
}

func TestGateAllocs(t *testing.T) {
	base := &Summary{Benchmarks: map[string]Result{
		"BenchmarkFrontendPipeline": {N: 3, NsPerOp: 1, AllocsPerOp: 1000},
	}}
	run := func(allocs float64) *Summary {
		return &Summary{Benchmarks: map[string]Result{
			"BenchmarkFrontendPipeline": {N: 3, NsPerOp: 1, AllocsPerOp: allocs},
		}}
	}
	if _, err := gateAllocs(run(1099), base, "BenchmarkFrontendPipeline", 10); err != nil {
		t.Errorf("+9.9%% should pass at 10%%: %v", err)
	}
	if _, err := gateAllocs(run(1101), base, "BenchmarkFrontendPipeline", 10); err == nil {
		t.Error("+10.1% should fail at 10%")
	}
	// Negative tolerance demands an improvement.
	if _, err := gateAllocs(run(500), base, "BenchmarkFrontendPipeline", -40); err != nil {
		t.Errorf("-50%% should pass a -40%% improvement gate: %v", err)
	}
	if _, err := gateAllocs(run(700), base, "BenchmarkFrontendPipeline", -40); err == nil {
		t.Error("-30% should fail a -40% improvement gate")
	}
	// Missing benchmem data in the current run is an error; a missing
	// baseline is a skip.
	if _, err := gateAllocs(&Summary{Benchmarks: map[string]Result{
		"BenchmarkFrontendPipeline": {N: 3, NsPerOp: 1},
	}}, base, "BenchmarkFrontendPipeline", 10); err == nil {
		t.Error("current run without -benchmem should fail the allocs gate")
	}
	msg, err := gateAllocs(run(1), &Summary{Benchmarks: map[string]Result{}}, "BenchmarkFrontendPipeline", 10)
	if err != nil {
		t.Errorf("missing baseline should skip: %v", err)
	}
	if !strings.Contains(msg, "skipped") {
		t.Errorf("skip verdict should say so: %q", msg)
	}
}

// TestGateAllocsNeedsEqualN pins that an allocs gate fails, naming both
// iteration counts, when the run's n differs from its baseline row's.
func TestGateAllocsNeedsEqualN(t *testing.T) {
	base := &Summary{Benchmarks: map[string]Result{
		"BenchmarkFrontendBuildGraph": {N: 5, NsPerOp: 1, AllocsPerOp: 1490, HasMem: true},
	}}
	run := func(n int, allocs float64) *Summary {
		return &Summary{Benchmarks: map[string]Result{
			"BenchmarkFrontendBuildGraph": {N: n, NsPerOp: 1, AllocsPerOp: allocs, HasMem: true},
		}}
	}
	if _, err := gateAllocs(run(5, 1490), base, "BenchmarkFrontendBuildGraph", 10); err != nil {
		t.Errorf("equal n and allocs should pass: %v", err)
	}
	for _, n := range []int{3, 20} {
		_, err := gateAllocs(run(n, 1490), base, "BenchmarkFrontendBuildGraph", 10)
		if err == nil {
			t.Fatalf("n=%d against a baseline at n=5 should fail", n)
		}
		for _, want := range []string{fmt.Sprintf("n=%d", n), "n=5"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not name %q", err, want)
			}
		}
	}
}

// TestGateRatioAllocs covers the "@allocs" metric selector.
func TestGateRatioAllocs(t *testing.T) {
	run := &Summary{Benchmarks: map[string]Result{
		"BenchmarkFrontendPipeline":      {N: 3, NsPerOp: 10, AllocsPerOp: 2000},
		"BenchmarkFrontendPipelineFresh": {N: 3, NsPerOp: 10, AllocsPerOp: 10000},
	}}
	spec := "BenchmarkFrontendPipeline/BenchmarkFrontendPipelineFresh"
	if _, err := gateRatio(run, spec+"<=0.5@allocs", 1); err != nil {
		t.Errorf("allocs ratio 0.2 should pass at 0.5: %v", err)
	}
	if _, err := gateRatio(run, spec+"<=0.1@allocs", 1); err == nil {
		t.Error("allocs ratio 0.2 should fail at 0.1")
	}
	// Falls back to ns/op without the selector (ratio 1.0 > 0.5).
	if _, err := gateRatio(run, spec+"<=0.5", 1); err == nil {
		t.Error("ns ratio 1.0 should fail at 0.5")
	}
	// @allocs without benchmem data errors.
	noMem := &Summary{Benchmarks: map[string]Result{
		"BenchmarkFrontendPipeline":      {N: 3, NsPerOp: 10},
		"BenchmarkFrontendPipelineFresh": {N: 3, NsPerOp: 10},
	}}
	if _, err := gateRatio(noMem, spec+"<=0.5@allocs", 1); err == nil {
		t.Error("@allocs without benchmem data should fail")
	}
}

// TestZeroAllocsIsData pins that a legitimate "0 allocs/op" row is
// treated as measured data, not as missing -benchmem output.
func TestZeroAllocsIsData(t *testing.T) {
	s, err := parse(strings.NewReader(
		"BenchmarkFrontendTokenize-4   20   419593 ns/op   784 B/op   0 allocs/op\n" +
			"BenchmarkZeroEverything       20   100 ns/op   0 B/op   0 allocs/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	zt := s.Benchmarks["BenchmarkZeroEverything"]
	if !zt.HasMem || !zt.memPresent() {
		t.Fatal("0 B/op + 0 allocs/op must still count as measured")
	}

	// An allocs gate against a zero baseline passes when current is zero.
	base := &Summary{Benchmarks: map[string]Result{
		"BenchmarkZeroEverything": {N: 20, NsPerOp: 1, HasMem: true},
	}}
	if _, err := gateAllocs(s, base, "BenchmarkZeroEverything", 10); err != nil {
		t.Errorf("0 vs 0 allocs should pass: %v", err)
	}

	// @allocs ratio with a zero denominator: zero numerator passes,
	// nonzero fails (infinitely worse).
	s.Benchmarks["BenchmarkPair"] = Result{N: 1, NsPerOp: 1, AllocsPerOp: 5, HasMem: true}
	if _, err := gateRatio(s, "BenchmarkZeroEverything/BenchmarkZeroEverything<=1@allocs", 1); err != nil {
		t.Errorf("0/0 allocs ratio should pass: %v", err)
	}
	if _, err := gateRatio(s, "BenchmarkPair/BenchmarkZeroEverything<=1000@allocs", 1); err == nil {
		t.Error("nonzero/0 allocs ratio should fail any bound")
	}
}

// TestCheckReportsEveryFailure pins that a failed gate does not hide the
// gates after it: two allocation regressions are both reported, the
// passing gates around them still print their verdicts, and the count of
// failures is what decides the exit status.
func TestCheckReportsEveryFailure(t *testing.T) {
	base := &Summary{Benchmarks: map[string]Result{
		"BenchmarkAnalyzeFilesBatched": {N: 3, NsPerOp: 100_000},
		"BenchmarkFrontendBuildGraph":  {N: 3, NsPerOp: 1, AllocsPerOp: 1490, HasMem: true},
		"BenchmarkFrontendPipeline":    {N: 3, NsPerOp: 1, AllocsPerOp: 2401, HasMem: true},
		"BenchmarkFrontendParse":       {N: 3, NsPerOp: 1, AllocsPerOp: 100, HasMem: true},
	}}
	cur := &Summary{Benchmarks: map[string]Result{
		"BenchmarkAnalyzeFilesBatched":   {N: 3, NsPerOp: 90_000},
		"BenchmarkFrontendBuildGraph":    {N: 3, NsPerOp: 1, AllocsPerOp: 1823, HasMem: true},
		"BenchmarkFrontendPipeline":      {N: 3, NsPerOp: 1, AllocsPerOp: 2803, HasMem: true},
		"BenchmarkFrontendParse":         {N: 3, NsPerOp: 1, AllocsPerOp: 100, HasMem: true},
		"BenchmarkFrontendPipelineFresh": {N: 3, NsPerOp: 4, AllocsPerOp: 14000, HasMem: true},
	}}
	g := gates{
		baseline:         base,
		ns:               "BenchmarkAnalyzeFilesBatched",
		maxRegress:       20,
		allocs:           []string{"BenchmarkFrontendBuildGraph", "BenchmarkFrontendPipeline", "BenchmarkFrontendParse"},
		maxAllocsRegress: 10,
		ratios:           []string{"BenchmarkFrontendPipeline/BenchmarkFrontendPipelineFresh<=0.50@allocs"},
		maxRatio:         1,
	}
	var out, errOut strings.Builder
	if failed := g.check(cur, &out, &errOut); failed != 2 {
		t.Fatalf("check = %d failures, want 2", failed)
	}
	for _, name := range []string{"BenchmarkFrontendBuildGraph allocs/op regressed", "BenchmarkFrontendPipeline allocs/op regressed"} {
		if !strings.Contains(errOut.String(), name) {
			t.Errorf("failures %q do not report %q", errOut.String(), name)
		}
	}
	if n := strings.Count(out.String(), "\n"); n != 3 {
		t.Errorf("want 3 passing verdicts, got %d:\n%s", n, out.String())
	}
	for _, name := range []string{"BenchmarkAnalyzeFilesBatched within", "BenchmarkFrontendParse allocs/op within", "ratio 0.200 within"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("verdicts %q do not report %q", out.String(), name)
		}
	}
}
