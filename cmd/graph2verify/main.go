// graph2verify statically verifies OpenMP pragma safety: it parses C
// sources, re-derives what the dependence analysis can prove about every
// loop, and checks each source pragma (or, for bare loops, the loop itself)
// against the verdict lattice safe < unknown < unsafe.
//
// Usage:
//
//	go run ./cmd/graph2verify examples/c
//	go run ./cmd/graph2verify -json examples/c | jq .
//	go run ./cmd/graph2verify -list
//
// Arguments are C files or directories (walked recursively for *.c).
// Exit status is 0 when every loop is safe or unknown, 1 when any loop is
// unsafe, 2 on operational errors (unparseable file, bad flags). Output is
// sorted by (file, line) and byte-identical across runs and -workers
// values, so CI can diff it against a golden file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"graph2par/internal/cli"
	"graph2par/internal/cparse"
	"graph2par/internal/parallel"
	"graph2par/internal/verify"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// fileResult is one source file's outcome: its loop verdicts, or the
// parse error that prevented them.
type fileResult struct {
	path  string
	loops []verify.LoopVerdict
	err   error
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("graph2verify", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit verdicts as a JSON array")
	list := fs.Bool("list", false, "list the check suite and exit")
	workers := fs.Int("workers", 0, "worker goroutines for multi-file runs (0 = GOMAXPROCS)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: graph2verify [-json] [-workers n] <file.c|dir>...\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return cli.ExitClean
		}
		return cli.ExitError
	}

	if *list {
		for _, c := range verify.Checks() {
			fmt.Fprintf(stdout, "%-12s %s\n", c.Name, c.Doc)
		}
		return cli.ExitClean
	}

	paths, err := cli.CollectSources(fs.Args())
	if err != nil {
		fmt.Fprintf(stderr, "graph2verify: %v\n", err)
		return cli.ExitError
	}
	if len(paths) == 0 {
		fmt.Fprintf(stderr, "graph2verify: no C sources given\n")
		fs.Usage()
		return cli.ExitError
	}

	// Verify files concurrently into a slot-indexed result slice: output
	// order never depends on scheduling, only on the sorted path list.
	results := make([]fileResult, len(paths))
	parallel.ForEach(*workers, len(paths), func(i int) {
		results[i] = verifyPath(paths[i])
	})

	var all []verify.LoopVerdict
	for _, r := range results {
		if r.err != nil {
			fmt.Fprintf(stderr, "graph2verify: %s: %v\n", r.path, r.err)
			return cli.ExitError
		}
		all = append(all, r.loops...)
	}

	unsafe := 0
	for _, v := range all {
		if v.Verdict.Level == verify.Unsafe {
			unsafe++
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if all == nil {
			all = []verify.LoopVerdict{}
		}
		if err := enc.Encode(all); err != nil {
			fmt.Fprintf(stderr, "graph2verify: %v\n", err)
			return cli.ExitError
		}
	} else {
		for _, v := range all {
			line := fmt.Sprintf("%s:%d: [%s] %s loop", v.File, v.Line, v.Verdict.Level, v.Kind)
			if v.Verdict.Reason != "" {
				line += ": " + v.Verdict.Reason
			}
			fmt.Fprintln(stdout, line)
		}
		if unsafe > 0 {
			fmt.Fprintf(stderr, "graph2verify: %d unsafe loop(s) across %d file(s)\n",
				unsafe, len(paths))
		}
	}
	if unsafe > 0 {
		return cli.ExitFindings
	}
	return cli.ExitClean
}

// verifyPath parses one C file and verifies its loops.
func verifyPath(path string) fileResult {
	src, err := os.ReadFile(path)
	if err != nil {
		return fileResult{path: path, err: err}
	}
	file, err := cparse.ParseFile(string(src))
	if err != nil {
		return fileResult{path: path, err: err}
	}
	loops := verify.VerifyFile(file)
	for i := range loops {
		loops[i].File = path
	}
	return fileResult{path: path, loops: loops}
}
