// graph2rewrite emits transformed OpenMP C: it parses C sources, derives
// the clause list the dependence analysis can justify for every loop,
// gates each derived directive through the graph2verify lattice, and
// splices the accepted pragmas into the source bytes — validating every
// rewrite by graph-identical re-parse and by serial-vs-reversed execution
// under the interpreter. Loops failing any gate stay suggestion-only with
// the reason in the report.
//
// Usage:
//
//	go run ./cmd/graph2rewrite examples/c
//	go run ./cmd/graph2rewrite -json examples/c | jq .
//	go run ./cmd/graph2rewrite -out /tmp/rewritten examples/c
//	go run ./cmd/graph2rewrite -only structure,purity file.c
//
// Arguments are C files or directories (walked recursively for *.c).
// Exit status mirrors graph2verify: 0 when every loop's final verdict is
// safe or unknown, 1 when any loop stays unsafe, 2 on operational errors.
// Output is sorted by (file, line) and byte-identical across runs and
// -workers values, so CI diffs it against a golden file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"graph2par/internal/cli"
	"graph2par/internal/parallel"
	"graph2par/internal/rewrite"
	"graph2par/internal/verify"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// pathResult is one source file's outcome, or the error preventing it.
type pathResult struct {
	res *rewrite.FileResult
	err error
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("graph2rewrite", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit per-file rewrite plans as a JSON array")
	list := fs.Bool("list", false, "list the verifier check suite gating rewrites and exit")
	only := fs.String("only", "", "comma-separated check names to gate with (default: all)")
	workers := fs.Int("workers", 0, "worker goroutines for multi-file runs (0 = GOMAXPROCS)")
	outDir := fs.String("out", "", "write every transformed source into this directory (by base name; inputs must not share one)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: graph2rewrite [-json] [-only a,b] [-workers n] [-out dir] <file.c|dir>...\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return cli.ExitClean
		}
		return cli.ExitError
	}

	checks := verify.Checks()
	if *list {
		for _, c := range checks {
			fmt.Fprintf(stdout, "%-12s %s\n", c.Name, c.Doc)
		}
		return cli.ExitClean
	}
	checks, err := cli.SelectOnly(checks, func(c *verify.Check) string { return c.Name }, *only, "check")
	if err != nil {
		fmt.Fprintf(stderr, "graph2rewrite: %v\n", err)
		return cli.ExitError
	}

	paths, err := cli.CollectSources(fs.Args())
	if err != nil {
		fmt.Fprintf(stderr, "graph2rewrite: %v\n", err)
		return cli.ExitError
	}
	if len(paths) == 0 {
		fmt.Fprintf(stderr, "graph2rewrite: no C sources given\n")
		fs.Usage()
		return cli.ExitError
	}
	if *outDir != "" {
		if err := cli.UniqueBaseNames(paths); err != nil {
			fmt.Fprintf(stderr, "graph2rewrite: -out: %v\n", err)
			return cli.ExitError
		}
	}

	results := make([]pathResult, len(paths))
	parallel.ForEach(*workers, len(paths), func(i int) {
		results[i] = rewritePath(paths[i], checks)
	})

	var all []*rewrite.FileResult
	for i, r := range results {
		if r.err != nil {
			fmt.Fprintf(stderr, "graph2rewrite: %s: %v\n", paths[i], r.err)
			return cli.ExitError
		}
		all = append(all, r.res)
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "graph2rewrite: %v\n", err)
			return cli.ExitError
		}
		for _, r := range all {
			dst := filepath.Join(*outDir, filepath.Base(r.Path))
			if err := os.WriteFile(dst, []byte(r.Output), 0o644); err != nil {
				fmt.Fprintf(stderr, "graph2rewrite: %v\n", err)
				return cli.ExitError
			}
		}
	}

	unsafe := 0
	for _, r := range all {
		for _, p := range r.Loops {
			if p.Verdict.Level == verify.Unsafe {
				unsafe++
			}
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(all); err != nil {
			fmt.Fprintf(stderr, "graph2rewrite: %v\n", err)
			return cli.ExitError
		}
	} else {
		for _, r := range all {
			for _, p := range r.Loops {
				line := fmt.Sprintf("%s:%d: [%s] %s loop", r.Path, p.Line, p.Status, p.Kind)
				switch {
				case p.Status != rewrite.StatusSuggestion:
					line += ": " + p.Pragma
				case p.Reason != "":
					line += ": " + p.Reason
				}
				fmt.Fprintln(stdout, line)
			}
		}
		if unsafe > 0 {
			fmt.Fprintf(stderr, "graph2rewrite: %d loop(s) remain unsafe across %d file(s)\n",
				unsafe, len(paths))
		}
	}
	if unsafe > 0 {
		return cli.ExitFindings
	}
	return cli.ExitClean
}

// rewritePath rewrites one C file.
func rewritePath(path string, checks []*verify.Check) pathResult {
	src, err := os.ReadFile(path)
	if err != nil {
		return pathResult{err: err}
	}
	res, err := rewrite.RewriteSourceWith(string(src), checks)
	if err != nil {
		return pathResult{err: err}
	}
	res.Path = path
	return pathResult{res: res}
}
