package cinterp_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graph2par/internal/cast"
	"graph2par/internal/cparse"
	"graph2par/internal/dataset"
	"graph2par/internal/rewrite"
	"graph2par/internal/tools"
	"graph2par/internal/tools/discopop"
)

var update = flag.Bool("update", false, "rewrite testdata/dynamic_golden.json from the current corpus")

// dynFile is one translation unit's dynamic verdicts, loop by loop in
// File.Loops order.
type dynFile struct {
	Path  string    `json:"path"`
	Loops []dynLoop `json:"loops"`
}

type dynLoop struct {
	Line     int         `json:"line"`
	DiscoPoP dynDiscoPoP `json:"discopop"`
	Rewrite  dynRewrite  `json:"rewrite"`
}

type dynDiscoPoP struct {
	Processable bool              `json:"processable"`
	Parallel    bool              `json:"parallel"`
	Reason      string            `json:"reason"`
	Reductions  map[string]string `json:"reductions,omitempty"`
}

type dynRewrite struct {
	Status     rewrite.Status     `json:"status"`
	Reason     string             `json:"reason,omitempty"`
	Validation rewrite.Validation `json:"validation"`
}

// goldenCorpus returns the pinned translation units: every examples/c
// file, then the first 60 runnable and the first 40 function-only files of
// a fixed generated corpus.
func goldenCorpus(t *testing.T) []dynFile {
	t.Helper()
	type unit struct {
		path string
		file *cast.File
	}
	var units []unit
	dir := filepath.Join("..", "..", "examples", "c")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".c") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		f, err := cparse.ParseFile(string(src))
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		units = append(units, unit{"examples/c/" + e.Name(), f})
	}
	runnable, fnOnly := 0, 0
	for _, s := range dataset.Generate(dataset.Config{Scale: 0.02, Seed: 20}).Samples {
		if s.File == nil {
			continue
		}
		switch {
		case s.Runnable && runnable < 60:
			runnable++
		case !s.Runnable && fnOnly < 40:
			fnOnly++
		default:
			continue
		}
		units = append(units, unit{fmt.Sprintf("dataset/%d", s.ID), s.File})
	}
	if runnable < 60 || fnOnly < 40 {
		t.Fatalf("corpus yields %d runnable and %d function-only files, want 60 and 40", runnable, fnOnly)
	}

	dp := discopop.New()
	out := make([]dynFile, len(units))
	for i, u := range units {
		out[i].Path = u.path
		for _, l := range u.file.Loops() {
			v := dp.Analyze(tools.Sample{Loop: l.Loop, File: u.file, Compilable: true, Runnable: true})
			p := rewrite.PlanLoop(l.Loop, u.file)
			if len(v.Reductions) == 0 {
				v.Reductions = nil
			}
			out[i].Loops = append(out[i].Loops, dynLoop{
				Line:     l.Loop.Pos().Line,
				DiscoPoP: dynDiscoPoP{v.Processable, v.Parallel, v.Reason, v.Reductions},
				Rewrite:  dynRewrite{p.Status, p.Reason, p.Validation},
			})
		}
	}
	return out
}

// TestDynamicVerdictsGolden pins the two consumers of the interpreter's
// loop-access profile — DiscoPoP's verdict and the rewrite plan with its
// serial-vs-reversed oracle — for every loop of the golden corpus.
// Regenerate with `go test ./internal/cinterp -update` after an
// intentional change to either.
func TestDynamicVerdictsGolden(t *testing.T) {
	files := goldenCorpus(t)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(files); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "dynamic_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d files)", path, len(files))
		return
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -update ./internal/cinterp` to create it)", err)
	}
	var want []dynFile
	if err := json.Unmarshal(golden, &want); err != nil {
		t.Fatal(err)
	}
	wantBy := map[string]dynFile{}
	for _, f := range want {
		wantBy[f.Path] = f
	}
	for _, got := range files {
		w, ok := wantBy[got.Path]
		if !ok {
			t.Errorf("%s: not in the golden", got.Path)
			continue
		}
		if len(w.Loops) != len(got.Loops) {
			t.Errorf("%s: %d loops, golden has %d", got.Path, len(got.Loops), len(w.Loops))
			continue
		}
		for i := range got.Loops {
			g, _ := json.Marshal(got.Loops[i])
			x, _ := json.Marshal(w.Loops[i])
			if !bytes.Equal(g, x) {
				t.Errorf("%s loop %d:\n got %s\nwant %s", got.Path, i, g, x)
			}
		}
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Error("golden bytes differ; run `go test -update ./internal/cinterp` if the change is intended")
	}
}

// TestReductionRulesDiffer pins the inner loop of a nest whose reduction
// cell is updated once per inner iteration but re-entered by every outer
// iteration. DiscoPoP sums a cell's writes per iteration index over every
// entry of the loop and so rejects it; the rewrite oracle bounds each run
// of consecutive same-iteration writes and accepts it. The two rules are
// different facts about the same cell.
func TestReductionRulesDiffer(t *testing.T) {
	src := `int main() {
    double a[8][8];
    double s = 0.0;
    int i, j;
    for (i = 0; i < 8; i++)
        for (j = 0; j < 8; j++)
            a[i][j] = i + j * 0.5;
    for (i = 0; i < 8; i++) {
        for (j = 0; j < 8; j++) {
            s += a[i][j];
        }
    }
    return (int)s;
}`
	f, err := cparse.ParseFile(src)
	if err != nil {
		t.Fatal(err)
	}
	loops := f.Loops()
	inner := loops[len(loops)-1].Loop
	v := discopop.New().Analyze(tools.Sample{Loop: inner, File: f, Compilable: true, Runnable: true})
	if want := `DiscoPoP: reduction candidate "s" updated multiple times per iteration`; !v.Processable || v.Parallel || v.Reason != want {
		t.Errorf("DiscoPoP = %+v, want processable, not parallel, %q", v, want)
	}
	p := rewrite.PlanLoop(inner, f)
	if p.Status != rewrite.StatusRewritten || p.Validation.Dynamic != "checked" {
		t.Errorf("rewrite plan = %s %q (dynamic %q), want rewritten and checked", p.Status, p.Reason, p.Validation.Dynamic)
	}
	if got := p.Pragma; !strings.Contains(got, "reduction(+:s)") {
		t.Errorf("pragma = %q, want a reduction(+:s) clause", got)
	}
}
