package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"graph2par/internal/cast"
	"graph2par/internal/cparse"
	"graph2par/internal/dataset"
)

// Seeds. The fixture model is trained from fixtureSeed; every input pool
// is generated from poolSeed, which differs from it, so no benchmark input
// is a training program. The --seed argument never reaches the dataset
// generator: it draws from the fixed pools (order, names, markers, working
// sets and arrival schedules), so runs with different seeds do the same
// kind and amount of work and stay comparable with each other.
const (
	fixtureSeed = 1234
	poolSeed    = 0x6a09e667f3bcc908
)

// Pool scales, in dataset.Config.Scale units. The corpus pool (≈430
// programs, ≈880 loops) is what graph2par's default training scale
// generates; the rewrite pool is a quarter of it because rewriting costs
// about ten times as much per file.
const (
	corpusScale  = 0.02
	rewriteScale = 0.005
)

// Open-loop traffic shapes.
const (
	missRate      = 40.0  // serve-miss requests per second
	hotRate       = 300.0 // serve-hot requests per second
	hotWorkingSet = 384   // distinct programs serve-hot cycles through
	cacheCapacity = 4096  // graph2serve's -cache default, in loop reports
)

// program is one dataset file with the label of its target loop.
type program struct {
	Src string
	// TargetLine and TargetSrc identify the labeled loop (the last
	// top-level loop of the file's last function) among the reports.
	TargetLine int
	TargetSrc  string
	Parallel   bool
}

// pool generates the fixed input pool of one scale: every dataset sample
// that is a whole translation unit, in generation order. No file is
// filtered out.
func pool(scale float64) []program {
	c := dataset.Generate(dataset.Config{Scale: scale, Seed: poolSeed})
	var out []program
	for _, s := range c.Samples {
		if s.FileSrc == "" {
			continue
		}
		out = append(out, program{
			Src:        s.FileSrc,
			TargetLine: s.Loop.Pos().Line,
			TargetSrc:  cast.Print(s.Loop),
			Parallel:   s.Parallel,
		})
	}
	return out
}

// arrival is one scheduled request of an open-loop workload.
type arrival struct {
	Due time.Duration // offset from the start of the measured phase
	Src int           // index into the workload's request sources
}

// inputs is everything a workload feeds the program, derived from the
// pool and the seed alone.
type inputs struct {
	Progs []program // pool programs the sources were made from
	// Names and Sources are parallel: Sources[i] is a program made from
	// Progs[Of[i]]. corpus and rewrite analyze every source on each pass
	// (corpus through one AnalyzeFiles call keyed by Names); serve-hot's
	// sources are its working set; serve-miss has one source per request.
	Names   []string
	Sources []string
	Of      []int
	// Sched is the open-loop arrival schedule (serve-* only).
	Sched []arrival
}

func newRNG(seed uint64, stream string) *rand.Rand {
	h := sha256.Sum256([]byte(fmt.Sprintf("%d/%s", seed, stream)))
	return rand.New(rand.NewSource(int64(binary.LittleEndian.Uint64(h[:8]))))
}

// marker makes a source byte-distinct without moving any loop: a trailing
// comment changes the content hash (and so every cache key) but no line
// number or report field.
func marker(src, tag string) string {
	return src + "\n/* perfbench " + tag + " */\n"
}

// makeInputs builds a workload's inputs from its pool and the seed.
// seconds sets the length of open-loop schedules.
func makeInputs(workload string, progs []program, seed uint64, seconds int) (*inputs, error) {
	in := &inputs{Progs: progs}
	switch workload {
	case "corpus", "rewrite":
		// The whole pool, in seeded order under seeded names.
		rng := newRNG(seed, workload)
		used := map[string]bool{}
		for _, p := range rng.Perm(len(progs)) {
			name := fmt.Sprintf("%08x.c", rng.Uint32())
			for used[name] {
				name = fmt.Sprintf("%08x.c", rng.Uint32())
			}
			used[name] = true
			in.Names = append(in.Names, name)
			in.Sources = append(in.Sources, progs[p].Src)
			in.Of = append(in.Of, p)
		}
	case "serve-miss":
		rng := newRNG(seed, workload)
		n := decks(len(progs), missRate, seconds)
		due := arrivals(rng, n, missRate)
		for i, p := range deck(rng, len(progs), n) {
			in.Names = append(in.Names, fmt.Sprintf("req-%d", i))
			in.Sources = append(in.Sources, marker(progs[p].Src, fmt.Sprintf("request %d.%d", seed, i)))
			in.Of = append(in.Of, p)
			in.Sched = append(in.Sched, arrival{Due: due[i], Src: i})
		}
	case "serve-hot":
		rng := newRNG(seed, workload)
		perm := rng.Perm(len(progs))
		if len(perm) > hotWorkingSet {
			perm = perm[:hotWorkingSet]
		}
		for k, p := range perm {
			in.Names = append(in.Names, fmt.Sprintf("ws-%d", k))
			in.Sources = append(in.Sources, marker(progs[p].Src, fmt.Sprintf("working set %d.%d", seed, k)))
			in.Of = append(in.Of, p)
		}
		n := decks(len(perm), hotRate, seconds)
		due := arrivals(rng, n, hotRate)
		for i, k := range deck(rng, len(perm), n) {
			in.Sched = append(in.Sched, arrival{Due: due[i], Src: k})
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	return in, nil
}

// decks returns the request count of an open-loop schedule: the whole
// decks of n programs that come nearest to rate × seconds requests.
func decks(n int, rate float64, seconds int) int {
	d := int(math.Round(rate * float64(seconds) / float64(n)))
	return max(d, 1) * n
}

// deck deals k indices below n from reshuffled decks: each run of n draws
// is a fresh seeded permutation. With k a multiple of n every program is
// requested equally often, so seeds differ in order and timing, not in the
// make-up of the request mix, which sets the latency tail.
func deck(rng *rand.Rand, n, k int) []int {
	out := make([]int, 0, k)
	for len(out) < k {
		out = append(out, rng.Perm(n)...)
	}
	return out[:k]
}

// arrivals returns n sorted arrival offsets of a Poisson process of the
// given rate conditioned on n arrivals in n/rate seconds: independent
// uniform times over that span. Every seed's schedule then lasts as long,
// which keeps throughput per measured second comparable between seeds.
func arrivals(rng *rand.Rand, n int, rate float64) []time.Duration {
	span := float64(n) / rate
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Float64() * span * float64(time.Second))
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// digest fingerprints the inputs: names, sources and schedule.
func (in *inputs) digest() string {
	h := sha256.New()
	for i := range in.Sources {
		fmt.Fprintf(h, "%s\x00%d\x00%s\x00", in.Names[i], in.Of[i], in.Sources[i])
	}
	for _, a := range in.Sched {
		fmt.Fprintf(h, "%d:%d\n", a.Due, a.Src)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// inputProps are the input properties the benchmark prints.
type inputProps struct {
	Files        int
	Loops        int
	RunnableFrac float64 // share of loops DiscoPoP will execute
}

// properties counts the loops of the distinct programs behind the
// sources, the way the engine enumerates them, and the share DiscoPoP
// executes: for-loops of a program that defines main.
func (in *inputs) properties() (inputProps, error) {
	seen := map[int]bool{}
	var st inputProps
	runnable := 0
	for i, src := range in.Sources {
		if seen[in.Of[i]] {
			continue
		}
		seen[in.Of[i]] = true
		f, err := cparse.ParseFile(src)
		if err != nil {
			return st, fmt.Errorf("input %s: %w", in.Names[i], err)
		}
		hasMain := false
		for _, fn := range f.Funcs {
			if fn.Name == "main" && fn.Body != nil {
				hasMain = true
			}
		}
		for _, l := range collectLoops(f) {
			st.Loops++
			if _, ok := l.(*cast.For); ok && hasMain {
				runnable++
			}
		}
		st.Files++
	}
	if st.Loops > 0 {
		st.RunnableFrac = float64(runnable) / float64(st.Loops)
	}
	return st, nil
}

// collectLoops lists a file's loops in the engine's job order: every
// for/while statement, function by function, in walk order.
func collectLoops(f *cast.File) []cast.Stmt {
	var loops []cast.Stmt
	for _, fn := range f.Funcs {
		cast.Walk(fn.Body, func(n cast.Node) bool {
			switch n.(type) {
			case *cast.For, *cast.While:
				loops = append(loops, n.(cast.Stmt))
			}
			return true
		})
	}
	return loops
}

// byLine stable-sorts loops by line, the order of the engine's reports.
func byLine(loops []cast.Stmt) []cast.Stmt {
	out := append([]cast.Stmt(nil), loops...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Pos().Line < out[j].Pos().Line })
	return out
}
