package pragma

import (
	"reflect"
	"testing"
)

func TestParseParallelForReduction(t *testing.T) {
	in := Parse("#pragma omp parallel for reduction(+:sum)")
	if !in.IsOMP || !in.ParallelFor {
		t.Fatalf("info = %+v", in)
	}
	if !in.Has(Reduction) {
		t.Error("missing reduction category")
	}
	if got := in.ReductionOps["+"]; !reflect.DeepEqual(got, []string{"sum"}) {
		t.Errorf("reduction vars = %v", got)
	}
}

func TestParsePrivate(t *testing.T) {
	in := Parse("#pragma omp parallel for private(i, j, tmp)")
	if !in.Has(Private) {
		t.Fatal("missing private")
	}
	if !reflect.DeepEqual(in.PrivateVars, []string{"i", "j", "tmp"}) {
		t.Errorf("vars = %v", in.PrivateVars)
	}
}

func TestParseSIMD(t *testing.T) {
	for _, src := range []string{
		"#pragma omp simd",
		"#pragma omp parallel for simd",
		"#pragma omp for simd aligned(a:32)",
	} {
		in := Parse(src)
		if !in.Has(SIMD) || !in.ParallelFor {
			t.Errorf("%q: %+v", src, in)
		}
	}
}

func TestParseTarget(t *testing.T) {
	in := Parse("#pragma omp target teams distribute parallel for map(to:a)")
	if !in.Has(Target) || !in.ParallelFor {
		t.Fatalf("info = %+v", in)
	}
}

func TestBareForPragma(t *testing.T) {
	in := Parse("#pragma omp for")
	if !in.ParallelFor {
		t.Error("bare `omp for` should count as worksharing")
	}
}

func TestNonOMPPragmaIgnored(t *testing.T) {
	in := Parse("#pragma once")
	if in.IsOMP || in.ParallelFor || len(in.Categories) != 0 {
		t.Errorf("info = %+v", in)
	}
}

func TestStackedLines(t *testing.T) {
	in := Parse("#pragma omp parallel\n#pragma omp for reduction(*:prod)")
	if !in.ParallelFor || !in.Has(Reduction) {
		t.Fatalf("info = %+v", in)
	}
	if got := in.ReductionOps["*"]; !reflect.DeepEqual(got, []string{"prod"}) {
		t.Errorf("vars = %v", got)
	}
}

func TestReductionMinMax(t *testing.T) {
	in := Parse("#pragma omp parallel for reduction(max:best)")
	if got := in.ReductionOps["max"]; !reflect.DeepEqual(got, []string{"best"}) {
		t.Errorf("vars = %v", got)
	}
}

func TestMultipleReductionVars(t *testing.T) {
	in := Parse("#pragma omp parallel for reduction(+:a,b,c)")
	if got := in.ReductionOps["+"]; !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Errorf("vars = %v", got)
	}
}

func TestCategoriesDeterministicOrder(t *testing.T) {
	in := Parse("#pragma omp target parallel for simd reduction(+:s) private(i)")
	want := []Category{Private, Reduction, SIMD, Target}
	if !reflect.DeepEqual(in.Categories, want) {
		t.Errorf("categories = %v, want %v", in.Categories, want)
	}
}

func TestScheduleClauseConsumed(t *testing.T) {
	in := Parse("#pragma omp parallel for schedule(static, 4) private(k)")
	if !reflect.DeepEqual(in.PrivateVars, []string{"k"}) {
		t.Errorf("vars = %v (schedule args leaked?)", in.PrivateVars)
	}
}

func TestParallelWithoutFor(t *testing.T) {
	in := Parse("#pragma omp parallel")
	if in.ParallelFor {
		t.Error("`omp parallel` alone is not loop worksharing")
	}
	if !in.IsOMP {
		t.Error("should still be recognized as OMP")
	}
}

// TestConstructWords checks Construct for every category combination:
// `target teams distribute` (when targeted) comes before `parallel for`,
// and `simd` extends the construct name, so every clause appended to the
// result follows the whole construct.
func TestConstructWords(t *testing.T) {
	all := []Category{Private, Reduction, SIMD, Target}
	for mask := 0; mask < 1<<len(all); mask++ {
		var cats []Category
		for i, c := range all {
			if mask&(1<<i) != 0 {
				cats = append(cats, c)
			}
		}
		want := "#pragma omp parallel for"
		if hasCat(cats, Target) {
			want = "#pragma omp target teams distribute parallel for"
		}
		if hasCat(cats, SIMD) {
			want += " simd"
		}
		if got := Construct(cats); got != want {
			t.Errorf("cats %v: Construct = %q, want %q", cats, got, want)
		}
	}
}
