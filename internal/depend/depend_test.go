package depend

import (
	"testing"

	"graph2par/internal/cast"
	"graph2par/internal/cparse"
)

func parseFor(t *testing.T, src string) *cast.For {
	t.Helper()
	s, err := cparse.ParseStmt(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	f, ok := s.(*cast.For)
	if !ok {
		t.Fatalf("not a for loop: %T", s)
	}
	return f
}

func TestExtractLoopCanonical(t *testing.T) {
	cases := []struct {
		src    string
		iv     string
		step   int64
		canon  bool
		inclsv bool
	}{
		{"for (i = 0; i < n; i++) x++;", "i", 1, true, false},
		{"for (int i = 0; i <= n; ++i) x++;", "i", 1, true, true},
		{"for (i = n; i > 0; i--) x++;", "i", -1, true, false},
		{"for (i = 0; i < n; i += 2) x++;", "i", 2, true, false},
		{"for (i = 0; i < n; i = i + 4) x++;", "i", 4, true, false},
		{"for (i = 0; i < n; i -= 3) x++;", "i", -3, true, false},
		{"for (i = 0; n > i; i++) x++;", "i", 1, true, false},
		{"for (i = 0; i < n; i *= 2) x++;", "i", 0, false, false},
		{"for (p = q; p; p = r) x++;", "", 0, false, false},
	}
	for _, c := range cases {
		info := ExtractLoop(parseFor(t, c.src))
		if info.Canonical != c.canon {
			t.Errorf("%q: canonical = %v, want %v", c.src, info.Canonical, c.canon)
			continue
		}
		if !c.canon {
			continue
		}
		if info.IndVar != c.iv || info.Step != c.step || info.Inclusive != c.inclsv {
			t.Errorf("%q: got iv=%q step=%d incl=%v", c.src, info.IndVar, info.Step, info.Inclusive)
		}
	}
}

func TestCollectAccessesShapes(t *testing.T) {
	f := parseFor(t, "for (i = 0; i < n; i++) { a[i] = b[i+1] + s; s = c[2*i]; }")
	accs := CollectAccesses(f.Body)
	var aWrite, bRead, sWrite, sRead, cRead bool
	for _, a := range accs {
		switch {
		case a.Base == "a" && a.Write && len(a.Subscripts) == 1:
			aWrite = true
		case a.Base == "b" && !a.Write:
			bRead = true
		case a.Base == "s" && a.Write:
			sWrite = true
		case a.Base == "s" && !a.Write:
			sRead = true
		case a.Base == "c" && !a.Write:
			cRead = true
		}
	}
	if !aWrite || !bRead || !sWrite || !sRead || !cRead {
		t.Errorf("missing accesses: aW=%v bR=%v sW=%v sR=%v cR=%v", aWrite, bRead, sWrite, sRead, cRead)
	}
}

func TestCompoundAssignReadsLHS(t *testing.T) {
	f := parseFor(t, "for (i = 0; i < n; i++) sum += a[i];")
	accs := CollectAccesses(f.Body)
	var sumReads, sumWrites int
	for _, a := range accs {
		if a.Base == "sum" {
			if a.Write {
				sumWrites++
			} else {
				sumReads++
			}
		}
	}
	if sumWrites != 1 || sumReads != 1 {
		t.Errorf("sum writes=%d reads=%d, want 1/1", sumWrites, sumReads)
	}
}

func TestInCallFlag(t *testing.T) {
	f := parseFor(t, "for (i = 0; i < n; i++) e = e + fabs(a[i] - a[i+1]);")
	accs := CollectAccesses(f.Body)
	foundInCall := false
	for _, a := range accs {
		if a.Base == "a" && a.InCall {
			foundInCall = true
		}
	}
	if !foundInCall {
		t.Error("array access inside fabs() not flagged InCall")
	}
}

func TestConditionalFlag(t *testing.T) {
	f := parseFor(t, "for (i = 0; i < n; i++) { if (a[i] > 0) pos++; }")
	for _, a := range CollectAccesses(f.Body) {
		if a.Base == "pos" && !a.Conditional {
			t.Error("pos access should be conditional")
		}
	}
}

func TestAffineOf(t *testing.T) {
	cases := []struct {
		src   string
		ok    bool
		coefI int64
		c     int64
	}{
		{"i", true, 1, 0},
		{"i + 1", true, 1, 1},
		{"2*i + 3", true, 2, 3},
		{"i - 1", true, 1, -1},
		{"n - i", true, -1, 0},
		{"-i", true, -1, 0},
		{"3*(i+1)", true, 3, 3},
		{"i*j", false, 0, 0},
		{"a[i]", false, 0, 0},
		{"f(i)", false, 0, 0},
		{"i/2", false, 0, 0},
	}
	for _, cse := range cases {
		e, err := cparse.ParseExpr(cse.src)
		if err != nil {
			t.Fatal(err)
		}
		af, ok := AffineOf(e)
		if ok != cse.ok {
			t.Errorf("%q: ok = %v, want %v", cse.src, ok, cse.ok)
			continue
		}
		if !ok {
			continue
		}
		if af.Coeff("i") != cse.coefI || af.Const != cse.c {
			t.Errorf("%q: got %s", cse.src, af.String())
		}
	}
}

func TestSubscriptPairTests(t *testing.T) {
	mk := func(src string) Affine {
		e, err := cparse.ParseExpr(src)
		if err != nil {
			t.Fatal(err)
		}
		a, ok := AffineOf(e)
		if !ok {
			t.Fatalf("not affine: %s", src)
		}
		return a
	}
	cases := []struct {
		f, g string
		want DependenceResult
	}{
		{"i", "i", SameIteration},
		{"i", "i + 1", Dependent},       // distance 1 (Listing 1's a[i] vs a[i+1])
		{"2*i", "2*i + 1", Independent}, // parity differs
		{"2*i", "2*i + 4", Dependent},
		{"i", "j", Dependent},             // unrelated symbol: conservative
		{"i + n", "i + n", SameIteration}, // matching symbolic parts
		{"0", "0", Dependent},             // same fixed cell
		{"0", "5", Independent},
		{"4*i", "2*i+1", Independent}, // gcd 2 does not divide 1
		{"4*i", "2*i+2", Dependent},
	}
	for _, c := range cases {
		got := TestSubscriptPair(mk(c.f), mk(c.g), "i")
		if got != c.want {
			t.Errorf("(%s, %s): got %v, want %v", c.f, c.g, got, c.want)
		}
	}
}

func TestFindReductionsBasic(t *testing.T) {
	f := parseFor(t, "for (i = 0; i < n; i++) sum += a[i];")
	reds := FindReductions(f.Body, map[string]bool{"i": true})
	if len(reds) != 1 || reds[0].Var != "sum" || reds[0].Op != "+" {
		t.Fatalf("reds = %+v", reds)
	}
	if reds[0].MultiStatement {
		t.Error("single-statement reduction flagged multi")
	}
}

func TestFindReductionsForms(t *testing.T) {
	cases := []struct {
		src string
		v   string
		op  string
	}{
		{"for (i=0;i<n;i++) s = s + a[i];", "s", "+"},
		{"for (i=0;i<n;i++) s = a[i] + s;", "s", "+"},
		{"for (i=0;i<n;i++) p *= a[i];", "p", "*"},
		{"for (i=0;i<n;i++) p = p * 2;", "p", "*"},
		{"for (i=0;i<n;i++) d -= a[i];", "d", "-"},
		{"for (i=0;i<n;i++) cnt++;", "cnt", "+"},
		{"for (i=0;i<n;i++) { if (a[i]) cnt++; }", "cnt", "+"},
	}
	for _, c := range cases {
		f := parseFor(t, c.src)
		reds := FindReductions(f.Body, map[string]bool{"i": true})
		found := false
		for _, r := range reds {
			if r.Var == c.v && r.Op == c.op {
				found = true
			}
		}
		if !found {
			t.Errorf("%q: reductions = %+v, want %s(%s)", c.src, reds, c.op, c.v)
		}
	}
}

func TestReductionRejectsSelfRead(t *testing.T) {
	// s = s + s is not a valid reduction (rhs reads s beyond the pattern).
	f := parseFor(t, "for (i=0;i<n;i++) s = s + s;")
	reds := FindReductions(f.Body, nil)
	for _, r := range reds {
		if r.Var == "s" {
			t.Errorf("s should not be a reduction: %+v", r)
		}
	}
}

func TestMultiStatementReductionFlag(t *testing.T) {
	// Listing 4: v += 2; v = v + step; — valid "+" reduction but updated in
	// two statements (the pattern DiscoPoP misses).
	f := parseFor(t, "for (i=0;i<N;i+=step) { v += 2; v = v + step; }")
	reds := FindReductions(f.Body, map[string]bool{"i": true})
	if len(reds) != 1 || reds[0].Var != "v" {
		t.Fatalf("reds = %+v", reds)
	}
	if !reds[0].MultiStatement {
		t.Error("two-statement update not flagged MultiStatement")
	}
}

func TestMixedOpsNotReduction(t *testing.T) {
	f := parseFor(t, "for (i=0;i<n;i++) { s += a[i]; s *= 2; }")
	reds := FindReductions(f.Body, nil)
	for _, r := range reds {
		if r.Var == "s" {
			t.Errorf("mixed +/* update should not be a reduction: %+v", r)
		}
	}
}

func TestClassifyScalars(t *testing.T) {
	f := parseFor(t, `for (i = 0; i < n; i++) {
        tmp = a[i] * 2;
        b[i] = tmp + c;
        sum += tmp;
        last = last * f + 1;
    }`)
	classes := ClassifyScalars(f.Body, "i", true)
	if classes["tmp"] != ScalarPrivate {
		t.Errorf("tmp = %v, want private", classes["tmp"])
	}
	if classes["c"] != ScalarReadOnly {
		t.Errorf("c = %v, want read-only", classes["c"])
	}
	if classes["sum"] != ScalarReduction {
		t.Errorf("sum = %v, want reduction", classes["sum"])
	}
	if classes["last"] != ScalarCarried {
		t.Errorf("last = %v, want carried", classes["last"])
	}
}

func TestClassifyDeclaredInsidePrivate(t *testing.T) {
	f := parseFor(t, "for (i = 0; i < n; i++) { int t = a[i]; b[i] = t; }")
	classes := ClassifyScalars(f.Body, "i", false)
	if classes["t"] != ScalarPrivate {
		t.Errorf("t = %v", classes["t"])
	}
}

func TestConservativeConditionalFirstWrite(t *testing.T) {
	// First write is conditional: under the conservative policy (autoPar
	// style) this cannot establish privatization.
	f := parseFor(t, "for (i = 0; i < n; i++) { if (a[i]) t = 1; b[i] = t; }")
	consv := ClassifyScalars(f.Body, "i", false)
	if consv["t"] != ScalarCarried {
		t.Errorf("conservative t = %v, want carried", consv["t"])
	}
}

func TestAnalyzeArraysIndependent(t *testing.T) {
	f := parseFor(t, "for (i = 0; i < n; i++) a[i] = b[i] + c[i];")
	deps := AnalyzeArrays(f.Body, "i")
	if len(deps) != 0 {
		t.Errorf("deps = %+v, want none", deps)
	}
}

func TestAnalyzeArraysCarried(t *testing.T) {
	f := parseFor(t, "for (i = 1; i < n; i++) a[i] = a[i-1] + 1;")
	deps := AnalyzeArrays(f.Body, "i")
	if len(deps) != 1 || deps[0].Base != "a" {
		t.Fatalf("deps = %+v", deps)
	}
}

func TestAnalyzeArraysReadOnlyIgnored(t *testing.T) {
	f := parseFor(t, "for (i = 0; i < n; i++) s += a[i] + a[i+1];")
	deps := AnalyzeArrays(f.Body, "i")
	if len(deps) != 0 {
		t.Errorf("read-only array flagged: %+v", deps)
	}
}

func TestAnalyzeArraysNonAffine(t *testing.T) {
	f := parseFor(t, "for (i = 0; i < n; i++) a[b[i]] = i;")
	deps := AnalyzeArrays(f.Body, "i")
	if len(deps) != 1 {
		t.Fatalf("deps = %+v, want conservative dependence", deps)
	}
}

func TestAnalyzeArrays2DRowParallel(t *testing.T) {
	// a[i][j] with i fixed per outer iteration: inner loop over j is clean.
	f := parseFor(t, "for (j = 0; j < 1000; j++) sum += a[i][j] * v[j];")
	deps := AnalyzeArrays(f.Body, "j")
	if len(deps) != 0 {
		t.Errorf("listing 7 deps = %+v, want none", deps)
	}
}

func TestAnalyzeArraysStrided(t *testing.T) {
	f := parseFor(t, "for (i = 0; i < n; i++) { a[2*i] = 0; s += a[2*i+1]; }")
	deps := AnalyzeArrays(f.Body, "i")
	if len(deps) != 0 {
		t.Errorf("odd/even strides should be independent: %+v", deps)
	}
}

func TestHasCalls(t *testing.T) {
	f := parseFor(t, "for (i = 0; i < n; i++) e += fabs(a[i]) + g(b[i]);")
	has, names := HasCalls(f.Body)
	if !has || len(names) != 2 {
		t.Fatalf("has=%v names=%v", has, names)
	}
	if names[0] != "fabs" || names[1] != "g" {
		t.Errorf("names = %v (should be sorted)", names)
	}
}
