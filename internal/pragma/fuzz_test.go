package pragma

import "testing"

// FuzzParsePragma feeds arbitrary directive text through Parse and pushes
// the recognized categories back through Construct. Properties: no panic,
// Parse is deterministic, and Construct's output re-parses to a directive
// carrying at least the same categories (a Parse→Construct round trip
// never loses information).
func FuzzParsePragma(f *testing.F) {
	f.Add("#pragma omp parallel for")
	f.Add("#pragma omp parallel for reduction(+:sum) private(t, u)")
	f.Add("#pragma omp for simd collapse(2) schedule(static, 4)")
	f.Add("#pragma omp target teams distribute parallel for map(to: a)")
	f.Add("#pragma once")
	f.Add("#pragma omp parallel for reduction(:)(")
	f.Add("not a pragma at all")
	f.Add("#pragma omp parallel for ordered\n#pragma omp simd")
	f.Fuzz(func(t *testing.T, text string) {
		info := Parse(text)
		again := Parse(text)
		if info.IsOMP != again.IsOMP || info.ParallelFor != again.ParallelFor ||
			len(info.Categories) != len(again.Categories) {
			t.Fatalf("Parse not deterministic for %q: %+v vs %+v", text, info, again)
		}
		line := Construct(info.Categories)
		back := Parse(line)
		if !back.IsOMP || !back.ParallelFor {
			t.Fatalf("Construct(%v) = %q did not re-parse as an OMP parallel for", info.Categories, line)
		}
		// Construct renders the directive NAME only; of the categories,
		// just simd is part of the construct name and must survive the
		// round trip (private/reduction live in clauses Construct leaves
		// to the rewriter's renderer).
		if info.Has(SIMD) && !back.Has(SIMD) {
			t.Fatalf("simd lost in round trip: %q -> %+v", line, back)
		}
	})
}
