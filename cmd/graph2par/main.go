// Command graph2par analyzes the loops of a C source file: it predicts
// parallelism with the trained Graph2Par model, suggests OpenMP pragmas,
// and cross-checks against the reimplemented autoPar, PLUTO and DiscoPoP.
//
// Usage:
//
//	graph2par [-model ckpt] [-save ckpt] [-scale 0.02] [-epochs 6] file.c ...
//
// Without -model, a model is trained from scratch on a freshly generated
// OMP_Serial corpus (a few seconds at the default scale); -save persists it
// for reuse.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"graph2par"
	"graph2par/internal/cli"
	"graph2par/internal/profiling"
)

func main() {
	modelPath := flag.String("model", "", "load a trained checkpoint instead of training")
	savePath := flag.String("save", "", "save the (possibly fresh) model to this path")
	scale := flag.Float64("scale", 0.02, "OMP_Serial scale factor for from-scratch training")
	epochs := flag.Int("epochs", 6, "training epochs")
	seed := flag.Uint64("seed", 1234, "training seed")
	workers := flag.Int("workers", 0, "analysis worker pool size (0 = GOMAXPROCS)")
	trainWorkers := flag.Int("train-workers", 0, "data-parallel training workers (0 = GOMAXPROCS); any value trains bit-identically")
	doVerify := flag.Bool("verify", false, "statically verify every suggested pragma and print the verdict")
	doRewrite := flag.Bool("rewrite", false, "plan a verified source-to-source rewrite for every predicted-parallel loop and print its status")
	rewriteOut := flag.String("rewrite-out", "", "write the transformed source of every input into this directory, by base name (implies -rewrite)")
	dotDir := flag.String("dot", "", "write one Graphviz .dot file per loop to this directory, named <input base name>_loop_NN_lineL.dot")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run (training + analysis) to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()

	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: graph2par [flags] file.c ...")
		flag.PrintDefaults()
		os.Exit(2)
	}
	// Both output directories name files after the input's base name.
	if *dotDir != "" || *rewriteOut != "" {
		if err := cli.UniqueBaseNames(flag.Args()); err != nil {
			fmt.Fprintln(os.Stderr, "graph2par:", err)
			os.Exit(2)
		}
	}

	prof, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "graph2par:", err)
		os.Exit(1)
	}
	// os.Exit skips defers, so every exit below goes through fail/finish.
	fail := func() {
		prof.Stop()
		os.Exit(1)
	}

	engine, err := graph2par.NewEngine(graph2par.EngineConfig{
		ModelPath:    *modelPath,
		TrainScale:   *scale,
		Epochs:       *epochs,
		Seed:         *seed,
		Workers:      *workers,
		TrainWorkers: *trainWorkers,
		Verify:       *doVerify,
		Rewrite:      *doRewrite || *rewriteOut != "",
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "graph2par:", err)
		fail()
	}
	if *savePath != "" {
		if err := engine.Save(*savePath); err != nil {
			fmt.Fprintln(os.Stderr, "graph2par: saving model:", err)
			fail()
		}
		fmt.Println("model saved to", *savePath)
	}

	// Read every file up front and analyze the whole batch in one
	// concurrent AnalyzeFiles pass; printing stays in argument order.
	exit := 0
	sources := map[string]string{}
	for _, path := range flag.Args() {
		src, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "graph2par:", err)
			exit = 1
			continue
		}
		sources[path] = string(src)
	}
	byFile, err := engine.AnalyzeFiles(sources)
	if err != nil {
		fmt.Fprintln(os.Stderr, err) // already prefixed graph2par:
		exit = 1
	}
	for _, path := range flag.Args() {
		reports, ok := byFile[path]
		if !ok {
			continue // unreadable or unparsable, already reported
		}
		fmt.Printf("== %s: %d loops ==\n", path, len(reports))
		for i, r := range reports {
			fmt.Print(r.Format())
			if *dotDir != "" {
				name := filepath.Join(*dotDir, fmt.Sprintf("%s_loop_%02d_line%d.dot", filepath.Base(path), i+1, r.Line))
				if err := os.WriteFile(name, []byte(r.DOT), 0o644); err != nil {
					fmt.Fprintln(os.Stderr, "graph2par: writing dot:", err)
					exit = 1
				}
			}
		}
	}
	if *rewriteOut != "" {
		if err := os.MkdirAll(*rewriteOut, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "graph2par:", err)
			fail()
		}
		// Splice the plans the analysis above already made, rather than
		// analyzing every file again through Engine.RewriteSource.
		for _, path := range flag.Args() {
			reports, ok := byFile[path]
			if !ok {
				continue
			}
			res, err := graph2par.SpliceRewrites(sources[path], reports)
			if err != nil {
				fmt.Fprintln(os.Stderr, "graph2par:", err)
				exit = 1
				continue
			}
			dst := filepath.Join(*rewriteOut, filepath.Base(path))
			if err := os.WriteFile(dst, []byte(res.Output), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "graph2par:", err)
				exit = 1
			}
		}
	}
	if err := prof.Stop(); err != nil {
		fmt.Fprintln(os.Stderr, "graph2par:", err)
		exit = 1
	}
	os.Exit(exit)
}
