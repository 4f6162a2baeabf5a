// Command perfbench is graph2par's end-to-end benchmark. It drives one of
// four seeded workloads through the public surfaces (graph2par.Engine, a
// serve.Server on loopback, train.LoadCheckpoint) and prints the
// end-to-end metrics; with --trace 1 it instead replays the same inputs
// stage by stage through each layer's public functions and prints the
// per-layer metrics. See README.md for every metric and workload.
//
// Run it from the root of a checkout, through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload corpus --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// A failed output check makes the command exit 1 after printing it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"

	"graph2par"
)

// endToEnd lists the end-to-end metrics every untraced run reports in its
// JSON line, with their units; BENCHMARK.json declares the same list.
// p99_ms is printed as a text line only: on this class of host it spread
// past any allowed bound between seeds (see README.md, Steadiness).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"loops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"ok_frac", "frac"},
	{"heap_mb", "MB"},
	{"accuracy", "frac"},
	{"rewritten_frac", "frac"},
}

// perLayer lists the per-layer metrics every traced run prints.
var perLayer = []struct{ name, unit string }{
	{"train.load_ms", "ms"},
	{"frontend.parse_us", "us"},
	{"frontend.graph_us", "us"},
	{"frontend.dot_us", "us"},
	{"frontend.nodes_mean", "count"},
	{"hgt.infer_us", "us"},
	{"hgt.batch_mean", "count"},
	{"tools.discopop_us", "us"},
	{"tools.pluto_us", "us"},
	{"tools.autopar_us", "us"},
	{"tools.discopop_runs", "count"},
	{"tools.unprocessable", "count"},
	{"verify.check_us", "us"},
	{"verify.safe", "count"},
	{"verify.unknown", "count"},
	{"verify.unsafe", "count"},
	{"rewrite.plan_us", "us"},
	{"rewrite.plan_max_s", "s"},
	{"rewrite.tail_share", "frac"},
	{"rewrite.rewritten", "count"},
	{"rewrite.atomic", "count"},
	{"rewrite.suggestion", "count"},
	{"cache.hit_frac", "frac"},
	{"cache.evictions", "count"},
	{"cache.entries", "count"},
	{"serve.handler_us", "us"},
	{"serve.transport_us", "us"},
	{"serve.resp_kb", "KB"},
	{"serve.queued_max", "count"},
	{"serve.shed", "count"},
	{"parallel.efficiency", "frac"},
	{"runtime.alloc_kb_per_loop", "KB"},
	{"runtime.gc_cpu_frac", "frac"},
	{"loadgen.lag_p99_ms", "ms"},
	{"trace.unattributed_frac", "frac"},
	{"trace.overhead_frac", "frac"},
	{"input.files", "count"},
	{"input.loops", "count"},
	{"input.loops_per_file", "count"},
	{"input.runnable_frac", "frac"},
	{"input.ws_entries", "count"},
	{"input.cache_capacity", "count"},
	{"host.cpu_mops", "Mops"},
}

var workloads = []string{"corpus", "serve-miss", "serve-hot", "rewrite"}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a run reports: operation counts and named values.
type outcome struct {
	Attempted int
	Failed    int
	Values    map[string]float64
}

func newOutcome() *outcome { return &outcome{Values: map[string]float64{}} }

// set records a metric value and prints it as a text line; note carries
// sample counts and caveats.
func (o *outcome) set(name string, v float64, note string) {
	o.Values[name] = v
	if note != "" {
		note = "  (" + note + ")"
	}
	fmt.Printf("%-28s %.6g%s\n", name, v, note)
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 30, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1 replays the inputs layer by layer and prints the per-layer metrics")
	root := fs.String("root", ".", "checkout root; build outputs, the model fixture and spans go under .bench_build/")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !slices.Contains(workloads, *workload) || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds ≥ 1 and --trace 0|1\n", strings.Join(workloads, ", "))
		return 2
	}
	b, err := newBench(*root, *workload, *seed, *seconds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	before := hostProbe()
	ticks0, steal0 := cpuTicks()
	var o *outcome
	if *trace == 1 {
		o, err = b.traced()
	} else {
		o, err = b.untraced()
	}
	ticks1, steal1 := cpuTicks()
	after := hostProbe()
	if err == nil {
		err = b.printInputs(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	probes := append(append([]float64(nil), before...), after...)
	o.set("host.cpu_mops", mean(probes), fmt.Sprintf("per vCPU before %s, after %s", fmtList(before, 0), fmtList(after, 0)))
	if ticks1 > ticks0 {
		fmt.Printf("host steal %.3f of CPU time during the run (from /proc/stat; not a metric)\n", float64(steal1-steal0)/float64(ticks1-ticks0))
	}

	names := endToEnd
	if *trace == 1 {
		names = perLayer
	}
	metrics := map[string]metric{}
	for _, m := range names {
		v, ok := o.Values[m.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", m.name)
			return 1
		}
		metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{o.Failed == 0, o.Attempted, o.Failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if o.Failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed their output check\n", o.Failed, o.Attempted)
		return 1
	}
	return 0
}

// bench is one run's shared state.
type bench struct {
	workload string
	seed     uint64
	seconds  int
	build    string // .bench_build under the checkout root
	ckpt     string
	nproc    int
	in       *inputs
}

func newBench(root, workload string, seed uint64, seconds int) (*bench, error) {
	b := &bench{
		workload: workload, seed: seed, seconds: seconds,
		build: filepath.Join(root, ".bench_build"),
		nproc: runtime.GOMAXPROCS(0),
	}
	var err error
	if b.ckpt, err = fixture(b.build); err != nil {
		return nil, err
	}
	// The fingerprint shows that two commits analyze with identical
	// weights; the engine computes it when a cache is configured.
	e, err := graph2par.NewEngine(graph2par.EngineConfig{ModelPath: b.ckpt, CacheSize: 1})
	if err != nil {
		return nil, err
	}
	fmt.Println("model fingerprint", e.Fingerprint())
	scale := corpusScale
	if workload == "rewrite" || workload == "serve-miss" {
		scale = rewriteScale
	}
	if b.in, err = makeInputs(workload, pool(scale), seed, seconds); err != nil {
		return nil, err
	}
	fmt.Printf("workload %s, seed %d, %d s, %d workers, inputs %s\n", workload, seed, seconds, b.nproc, b.in.digest()[:16])
	return b, nil
}

// fixture returns the path of the benchmark's model checkpoint, training
// it from fixtureSeed the first time. Training is never inside a timed
// span; the checkpoint is reused by every later run in the checkout.
func fixture(build string) (string, error) {
	dir := filepath.Join(build, "fixture")
	path := filepath.Join(dir, "model.ckpt")
	if _, err := os.Stat(path); err == nil {
		return path, nil
	} else if !errors.Is(err, os.ErrNotExist) {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	fmt.Println("training the fixture model (once per checkout)...")
	e, err := graph2par.NewEngine(graph2par.EngineConfig{TrainScale: corpusScale, Epochs: 6, Seed: fixtureSeed, Quiet: true})
	if err != nil {
		return "", fmt.Errorf("training fixture: %w", err)
	}
	tmp := path + ".tmp"
	if err := e.Save(tmp); err != nil {
		return "", fmt.Errorf("saving fixture: %w", err)
	}
	return path, os.Rename(tmp, path)
}

// fmtList prints xs as a bracketed list with the given decimals.
func fmtList(xs []float64, decimals int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', decimals, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
