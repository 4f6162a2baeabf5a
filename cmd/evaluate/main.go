// Command evaluate regenerates the paper's evaluation: every table and
// figure of the MLSys 2023 Graph2Par paper, plus the ablations listed in
// DESIGN.md.
//
// Usage:
//
//	evaluate -all                      # everything at the default scale
//	evaluate -table 2 -scale 0.05      # a single table, bigger corpus
//	evaluate -figure 2
//	evaluate -ablations
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"graph2par/internal/experiments"
	"graph2par/internal/profiling"
	"graph2par/internal/train"
)

func main() {
	scale := flag.Float64("scale", 0.02, "OMP_Serial scale factor")
	seed := flag.Uint64("seed", 1234, "experiment seed")
	epochs := flag.Int("epochs", 6, "training epochs")
	hidden := flag.Int("hidden", 48, "model hidden width")
	table := flag.Int("table", 0, "run a single table (1-5)")
	figure := flag.Int("figure", 0, "run a single figure (2)")
	workers := flag.Int("workers", 0, "worker pool size for the per-sample sweeps and training (0 = GOMAXPROCS)")
	all := flag.Bool("all", false, "run everything")
	verifier := flag.Bool("verifier", false, "run the static-verifier agreement/precision report")
	ablations := flag.Bool("ablations", false, "run the DESIGN.md ablations")
	appendix := flag.Bool("appendix", false, "run the appendix training-dynamics report")
	verbose := flag.Bool("v", false, "per-epoch training loss")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole evaluation to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()

	prof, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "evaluate:", err)
		os.Exit(1)
	}

	opts := train.DefaultOptions()
	opts.Epochs = *epochs
	opts.Hidden = *hidden
	opts.Verbose = *verbose

	cfg := experiments.Config{Scale: *scale, Seed: *seed, TestFrac: 0.25, Training: opts, Workers: *workers}
	fmt.Printf("generating OMP_Serial at scale %.3f (seed %d)...\n", *scale, *seed)
	start := time.Now()
	suite := experiments.NewSuite(cfg)
	fmt.Printf("corpus: %d loops (train %d / test %d) in %v\n\n",
		len(suite.Corpus.Samples), len(suite.Train), len(suite.Test), time.Since(start).Round(time.Millisecond))

	ran := false
	runIf := func(want bool, name string, fn func() string) {
		if !want {
			return
		}
		ran = true
		t0 := time.Now()
		out := fn()
		fmt.Println(out)
		fmt.Printf("[%s took %v]\n\n", name, time.Since(t0).Round(time.Millisecond))
	}

	runIf(*all || *table == 1, "table 1", func() string { return suite.Table1().Format() })
	runIf(*all || *figure == 2, "figure 2", func() string { return suite.Figure2().Format() })
	runIf(*all || *table == 2, "table 2", func() string { return suite.Table2().Format() })
	runIf(*all || *table == 3, "table 3", func() string { return suite.Table3().Format() })
	runIf(*all || *table == 4, "table 4", func() string { return suite.Table4().Format() })
	runIf(*all || *table == 5, "table 5", func() string { return suite.Table5().Format() })
	runIf(*all, "overhead (6.5)", func() string { return suite.Overhead().Format() })
	runIf(*all || *verifier, "static verifier", func() string { return suite.Verifier().Format() })
	runIf(*all, "case study (6.6)", func() string { return suite.CaseStudy().Format() })
	runIf(*ablations, "ablation edges", func() string { return suite.AblationEdges().Format() })
	runIf(*ablations, "ablation heterogeneity", func() string { return suite.AblationHeterogeneity().Format() })
	runIf(*ablations, "ablation capacity", func() string { return suite.AblationCapacity().Format() })
	runIf(*appendix, "appendix", func() string { return suite.Appendix().Format() })

	if !ran {
		prof.Stop()
		fmt.Fprintln(os.Stderr, "nothing selected: use -all, -table N, -figure 2, -ablations or -appendix")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if err := prof.Stop(); err != nil {
		fmt.Fprintln(os.Stderr, "evaluate:", err)
		os.Exit(1)
	}
}
