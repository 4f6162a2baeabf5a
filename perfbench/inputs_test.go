package main

import (
	"reflect"
	"testing"
)

func TestInputsRepeatPerSeed(t *testing.T) {
	progs := pool(rewriteScale)
	if again := pool(rewriteScale); !reflect.DeepEqual(progs, again) {
		t.Fatal("the pool differs between two generations")
	}
	for _, w := range workloads {
		a, err := makeInputs(w, progs, 7, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := makeInputs(w, progs, 7, 2)
		c, _ := makeInputs(w, progs, 8, 2)
		if !reflect.DeepEqual(a, b) || a.digest() != b.digest() {
			t.Errorf("%s: seed 7 gave different inputs or schedules on two calls", w)
		}
		if a.digest() == c.digest() {
			t.Errorf("%s: seeds 7 and 8 gave identical inputs", w)
		}
	}
}

func TestScheduleShape(t *testing.T) {
	progs := pool(rewriteScale)
	for w, rate := range map[string]float64{"serve-miss": missRate, "serve-hot": hotRate} {
		in, _ := makeInputs(w, progs, 3, 10)
		n := len(in.Sched)
		if n < int(rate*10)*2/3 || n > int(rate*10)*3/2 {
			t.Fatalf("%s: %d arrivals, want about %d", w, n, int(rate*10))
		}
		for i := 1; i < n; i++ {
			if in.Sched[i].Due < in.Sched[i-1].Due {
				t.Fatalf("%s: arrival %d is due before arrival %d", w, i, i-1)
			}
		}
		if last, span := in.Sched[n-1].Due.Seconds(), float64(n)/rate; last > span || last < 0.95*span {
			t.Errorf("%s: schedule ends at %.2f s, want just under %.2f s", w, last, span)
		}
		// Whole decks: every program is requested equally often.
		count := map[int]int{}
		for _, a := range in.Sched {
			count[in.Of[a.Src]]++
		}
		first := count[in.Of[in.Sched[0].Src]]
		for p, c := range count {
			if c != first {
				t.Fatalf("%s: program %d requested %d times, another %d times", w, p, c, first)
			}
		}
	}
}

// The rewrite and corpus inputs are the whole pool: no program is
// filtered out, however long it takes.
func TestDrawIsUnfiltered(t *testing.T) {
	progs := pool(rewriteScale)
	for _, w := range []string{"corpus", "rewrite"} {
		in, _ := makeInputs(w, progs, 5, 2)
		seen := map[int]bool{}
		for _, p := range in.Of {
			seen[p] = true
		}
		if len(in.Sources) != len(progs) || len(seen) != len(progs) {
			t.Errorf("%s: %d sources covering %d of %d pool programs", w, len(in.Sources), len(seen), len(progs))
		}
	}
}

func TestHotWorkingSetFitsCache(t *testing.T) {
	in, _ := makeInputs("serve-hot", pool(corpusScale), 1, 1)
	p, err := in.properties()
	if err != nil {
		t.Fatal(err)
	}
	if p.Files != hotWorkingSet || p.Loops == 0 || p.Loops > cacheCapacity {
		t.Errorf("working set: %d programs, %d loops, cache capacity %d", p.Files, p.Loops, cacheCapacity)
	}
}
