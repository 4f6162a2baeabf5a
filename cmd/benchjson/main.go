// Command benchjson turns `go test -bench` output into a machine-readable
// JSON summary and optionally gates on a committed baseline, failing when
// a named benchmark regressed beyond a tolerance. It is the benchmark
// half of CI: the bench job pipes the AnalyzeFiles benchmark family
// through it to produce BENCH_pr5.json (the uploaded trajectory artifact)
// and to enforce that batched inference never quietly loses the speed it
// was added for.
//
// Usage:
//
//	go test -bench 'AnalyzeFiles|RewriteFile' -benchtime 5x -run '^$' . \
//	  | benchjson -out BENCH_pr5.json \
//	      -baseline BENCH_baseline.json -gate BenchmarkAnalyzeFilesBatched -max-regress 20 \
//	      -gate-ratio BenchmarkRewriteFile/BenchmarkAnalyzeFilesSerial -max-ratio 2.5
//
// The baseline gate compares ns/op of -gate in the fresh run against the
// baseline file and fails when current > baseline × (1 + max-regress/100);
// a gate benchmark missing from the baseline is a warning, not a failure,
// so a new benchmark can land together with its first baseline. The ratio
// gate compares two benchmarks of the same run (machine-independent) and
// fails when ns/op(numerator) > ns/op(denominator) × max-ratio. Every gate
// is evaluated and reported, so one run shows every regression; the exit
// status is 1 when any of them failed.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark's measurement. BPerOp/AllocsPerOp are present
// only when the run used -benchmem; allocs/op is machine-independent, so
// it is the row the allocation-regression gates pin. HasMem records that
// the memory columns were actually measured — 0 allocs/op is a legitimate
// (and desirable) value, so the zero value cannot double as "missing".
type Result struct {
	N           int     `json:"n"` // iterations the timing averages over
	NsPerOp     float64 `json:"nsPerOp"`
	BPerOp      float64 `json:"bPerOp,omitempty"`
	AllocsPerOp float64 `json:"allocsPerOp,omitempty"`
	HasMem      bool    `json:"hasMem,omitempty"`
}

// memPresent reports whether the row carries -benchmem data. Baselines
// written before the HasMem field count as present when they have nonzero
// memory columns.
func (r Result) memPresent() bool {
	return r.HasMem || r.AllocsPerOp > 0 || r.BPerOp > 0
}

// Summary is the JSON document benchjson reads and writes.
type Summary struct {
	Goos       string            `json:"goos,omitempty"`
	Goarch     string            `json:"goarch,omitempty"`
	Pkg        string            `json:"pkg,omitempty"`
	CPU        string            `json:"cpu,omitempty"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

// benchLine matches e.g. "BenchmarkAnalyzeFilesSerial-8   3   123456 ns/op"
// with optional -benchmem columns ("456 B/op   7 allocs/op"); the -8
// GOMAXPROCS suffix is stripped so keys are stable across runners.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([0-9.]+) ns/op(?:\s+([0-9.]+) B/op\s+([0-9.]+) allocs/op)?`)

// parse reads `go test -bench` text output into a Summary.
func parse(r io.Reader) (*Summary, error) {
	s := &Summary{Benchmarks: map[string]Result{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			s.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			s.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: "):
			s.Pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "cpu: "):
			s.CPU = strings.TrimPrefix(line, "cpu: ")
		default:
			m := benchLine.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			n, err := strconv.Atoi(m[2])
			if err != nil {
				return nil, fmt.Errorf("benchjson: bad iteration count in %q: %v", line, err)
			}
			ns, err := strconv.ParseFloat(m[3], 64)
			if err != nil {
				return nil, fmt.Errorf("benchjson: bad ns/op in %q: %v", line, err)
			}
			r := Result{N: n, NsPerOp: ns}
			if m[4] != "" {
				if r.BPerOp, err = strconv.ParseFloat(m[4], 64); err != nil {
					return nil, fmt.Errorf("benchjson: bad B/op in %q: %v", line, err)
				}
				if r.AllocsPerOp, err = strconv.ParseFloat(m[5], 64); err != nil {
					return nil, fmt.Errorf("benchjson: bad allocs/op in %q: %v", line, err)
				}
				r.HasMem = true
			}
			s.Benchmarks[m[1]] = r
		}
	}
	return s, sc.Err()
}

// gate compares the gated benchmark against the baseline; it returns an
// error when the regression tolerance is exceeded, and a human-readable
// verdict line otherwise.
func gate(current, baseline *Summary, name string, maxRegressPct float64) (string, error) {
	cur, ok := current.Benchmarks[name]
	if !ok {
		return "", fmt.Errorf("benchjson: gate benchmark %s missing from current run", name)
	}
	base, ok := baseline.Benchmarks[name]
	if !ok {
		return fmt.Sprintf("benchjson: %s has no committed baseline yet; gate skipped", name), nil
	}
	limit := base.NsPerOp * (1 + maxRegressPct/100)
	delta := (cur.NsPerOp - base.NsPerOp) / base.NsPerOp * 100
	if cur.NsPerOp > limit {
		return "", fmt.Errorf("benchjson: %s regressed %.1f%% (%.0f ns/op vs baseline %.0f, tolerance %.0f%%)",
			name, delta, cur.NsPerOp, base.NsPerOp, maxRegressPct)
	}
	return fmt.Sprintf("benchjson: %s within tolerance: %.0f ns/op vs baseline %.0f (%+.1f%%, tolerance %.0f%%)",
		name, cur.NsPerOp, base.NsPerOp, delta, maxRegressPct), nil
}

// gateAllocs compares the gated benchmark's allocs/op against the
// baseline. Unlike ns/op, allocation counts are machine-independent, so
// the tolerance can be tight; a negative tolerance demands an improvement
// (current must be at least that many percent below the baseline). A gate
// benchmark (or baseline) without -benchmem data is a warning, not a
// failure, so the first -benchmem baseline can land with the gate.
//
// The two rows must also share their iteration count n. A pooled
// benchmark grows its pools in the first pass, and allocs/op spreads
// that growth over n, so rows taken at different -benchtime values
// differ by the pool growth alone: BenchmarkFrontendBuildGraph reads
// 1,823 allocs/op at 3x and 1,490 at 5x.
func gateAllocs(current, baseline *Summary, name string, maxRegressPct float64) (string, error) {
	cur, ok := current.Benchmarks[name]
	if !ok {
		return "", fmt.Errorf("benchjson: allocs gate benchmark %s missing from current run", name)
	}
	if !cur.memPresent() {
		return "", fmt.Errorf("benchjson: %s has no allocs/op in the current run (run with -benchmem)", name)
	}
	base, ok := baseline.Benchmarks[name]
	if !ok || !base.memPresent() {
		return fmt.Sprintf("benchjson: %s has no committed allocs/op baseline yet; allocs gate skipped", name), nil
	}
	if cur.N != base.N {
		return "", fmt.Errorf("benchjson: %s ran n=%d iterations but its baseline n=%d; allocs/op compares only at equal n (run at -benchtime %dx)",
			name, cur.N, base.N, base.N)
	}
	limit := base.AllocsPerOp * (1 + maxRegressPct/100)
	delta := (cur.AllocsPerOp - base.AllocsPerOp) / base.AllocsPerOp * 100
	if cur.AllocsPerOp > limit {
		return "", fmt.Errorf("benchjson: %s allocs/op regressed %.1f%% (%.0f vs baseline %.0f, tolerance %.0f%%)",
			name, delta, cur.AllocsPerOp, base.AllocsPerOp, maxRegressPct)
	}
	return fmt.Sprintf("benchjson: %s allocs/op within tolerance: %.0f vs baseline %.0f (%+.1f%%, tolerance %.0f%%)",
		name, cur.AllocsPerOp, base.AllocsPerOp, delta, maxRegressPct), nil
}

// gateRatio enforces a within-run relation between two benchmarks:
// ns/op of num must not exceed ns/op of den × the ratio bound. Unlike the
// baseline gate it compares measurements from the same process on the
// same machine, so it stays meaningful across runner-hardware changes —
// CI uses it to bound what the rewrite stage costs on top of analysis
// and to assert that data-parallel training keeps beating the serial
// epoch loop (within noise tolerance).
//
// The spec is NUMERATOR/DENOMINATOR with an optional per-spec bound
// appended as "<=X" (e.g. "BenchA/BenchB<=0.95"); without one, maxRatio
// (the -max-ratio flag) applies. A trailing "@allocs" compares allocs/op
// (requires a -benchmem run) instead of ns/op — the machine-independent
// form the front-end pooling gate uses. The flag is repeatable, so one
// invocation can enforce several relations over the same run.
func gateRatio(current *Summary, spec string, maxRatio float64) (string, error) {
	metric := "ns/op"
	if rel, ok := strings.CutSuffix(spec, "@allocs"); ok {
		spec, metric = rel, "allocs/op"
	}
	if rel, bound, ok := strings.Cut(spec, "<="); ok {
		v, err := strconv.ParseFloat(bound, 64)
		if err != nil {
			return "", fmt.Errorf("benchjson: bad ratio bound in %q: %v", spec, err)
		}
		spec, maxRatio = rel, v
	}
	num, den, ok := strings.Cut(spec, "/")
	if !ok {
		return "", fmt.Errorf("benchjson: -gate-ratio wants NUMERATOR/DENOMINATOR[<=MAX][@allocs], got %q", spec)
	}
	cn, ok := current.Benchmarks[num]
	if !ok {
		return "", fmt.Errorf("benchjson: ratio benchmark %s missing from current run", num)
	}
	cd, ok := current.Benchmarks[den]
	if !ok {
		return "", fmt.Errorf("benchjson: ratio benchmark %s missing from current run", den)
	}
	nv, dv := cn.NsPerOp, cd.NsPerOp
	if metric == "allocs/op" {
		if !cn.memPresent() || !cd.memPresent() {
			return "", fmt.Errorf("benchjson: %s/%s has no allocs/op data (run with -benchmem)", num, den)
		}
		nv, dv = cn.AllocsPerOp, cd.AllocsPerOp
		if dv == 0 {
			// A zero-allocation denominator: the numerator passes only by
			// matching it (any nonzero numerator is infinitely worse).
			if nv == 0 {
				return fmt.Sprintf("benchjson: %s/%s %s both zero; trivially within %.3f", num, den, metric, maxRatio), nil
			}
			return "", fmt.Errorf("benchjson: %s/%s %s ratio is infinite (%.0f vs 0)", num, den, metric, nv)
		}
	}
	ratio := nv / dv
	if ratio > maxRatio {
		return "", fmt.Errorf("benchjson: %s/%s %s ratio %.3f exceeds %.3f (%.0f vs %.0f)",
			num, den, metric, ratio, maxRatio, nv, dv)
	}
	return fmt.Sprintf("benchjson: %s/%s %s ratio %.3f within %.3f (%.0f vs %.0f)",
		num, den, metric, ratio, maxRatio, nv, dv), nil
}

// load reads a Summary JSON file.
func load(path string) (*Summary, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Summary
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("benchjson: parsing %s: %v", path, err)
	}
	return &s, nil
}

// write serializes a Summary with stable key order (json.Marshal sorts
// map keys) and a trailing newline so the artifact diffs cleanly.
func write(path string, s *Summary) error {
	raw, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func main() {
	in := flag.String("in", "", "benchmark output file (default: stdin)")
	out := flag.String("out", "", "write the parsed summary as JSON to this file")
	baselinePath := flag.String("baseline", "", "committed baseline JSON to gate against")
	gateName := flag.String("gate", "", "benchmark name to gate (requires -baseline)")
	maxRegress := flag.Float64("max-regress", 20, "allowed ns/op regression over the baseline, in percent")
	var ratioSpecs ratioList
	flag.Var(&ratioSpecs, "gate-ratio", "within-run gate NUMERATOR/DENOMINATOR[<=MAX][@allocs] (repeatable): fail when metric(num) > metric(den) × the bound")
	maxRatio := flag.Float64("max-ratio", 1, "default ratio bound for -gate-ratio specs without an explicit <=MAX")
	var allocGates ratioList
	flag.Var(&allocGates, "gate-allocs", "benchmark name whose allocs/op is gated against -baseline (repeatable; requires -benchmem output)")
	maxAllocsRegress := flag.Float64("max-allocs-regress", 10, "allowed allocs/op regression over the baseline, in percent")
	flag.Parse()

	var r io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		defer f.Close()
		r = f
	}
	summary, err := parse(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(summary.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines found in input")
		os.Exit(1)
	}

	names := make([]string, 0, len(summary.Benchmarks))
	for name := range summary.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b := summary.Benchmarks[name]
		if b.memPresent() {
			fmt.Printf("%-40s %12.0f ns/op %12.0f B/op %9.0f allocs/op  (n=%d)\n", name, b.NsPerOp, b.BPerOp, b.AllocsPerOp, b.N)
		} else {
			fmt.Printf("%-40s %12.0f ns/op  (n=%d)\n", name, b.NsPerOp, b.N)
		}
	}

	if *out != "" {
		if err := write(*out, summary); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
	}
	g := gates{
		ns:               *gateName,
		maxRegress:       *maxRegress,
		allocs:           allocGates,
		maxAllocsRegress: *maxAllocsRegress,
		ratios:           ratioSpecs,
		maxRatio:         *maxRatio,
	}
	if *gateName != "" || len(allocGates) > 0 {
		if *baselinePath == "" {
			fmt.Fprintln(os.Stderr, "benchjson: -gate and -gate-allocs require -baseline")
			os.Exit(1)
		}
		if g.baseline, err = load(*baselinePath); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
	}
	if failed := g.check(summary, os.Stdout, os.Stderr); failed > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: %d gate(s) failed\n", failed)
		os.Exit(1)
	}
}

// gates is every gate one invocation evaluates.
type gates struct {
	baseline         *Summary // loaded when -gate or -gate-allocs is set
	ns               string   // -gate
	maxRegress       float64
	allocs           []string // -gate-allocs
	maxAllocsRegress float64
	ratios           []string // -gate-ratio
	maxRatio         float64
}

// check evaluates every gate, printing each verdict to out and each
// failure to errOut, and returns the number of failures. A failed gate
// does not stop the ones after it.
func (g *gates) check(current *Summary, out, errOut io.Writer) int {
	failed := 0
	report := func(verdict string, err error) {
		if err != nil {
			fmt.Fprintln(errOut, err)
			failed++
			return
		}
		fmt.Fprintln(out, verdict)
	}
	if g.ns != "" {
		report(gate(current, g.baseline, g.ns, g.maxRegress))
	}
	for _, name := range g.allocs {
		report(gateAllocs(current, g.baseline, name, g.maxAllocsRegress))
	}
	for _, spec := range g.ratios {
		report(gateRatio(current, spec, g.maxRatio))
	}
	return failed
}

// ratioList collects repeated -gate-ratio flags.
type ratioList []string

func (r *ratioList) String() string { return strings.Join(*r, ",") }

func (r *ratioList) Set(v string) error {
	*r = append(*r, v)
	return nil
}
