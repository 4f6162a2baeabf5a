package cinterp

import (
	"errors"
	"testing"

	"graph2par/internal/cparse"
)

func TestStructScalarFields(t *testing.T) {
	v := mustRun(t, `
struct point { int x; int y; };
int main() {
    struct point p;
    p.x = 3;
    p.y = 4;
    return p.x * p.x + p.y * p.y;
}`)
	if v.AsInt() != 25 {
		t.Errorf("got %v, want 25", v)
	}
}

func TestStructArraySumLoop(t *testing.T) {
	// Listing-2 family: iterate a struct array, accumulate field values.
	v := mustRun(t, `
struct pixel { int r; int g; int b; };
int main() {
    struct pixel img[10];
    int i, total = 0;
    for (i = 0; i < 10; i++) {
        img[i].r = i;
        img[i].g = i * 2;
        img[i].b = 1;
    }
    for (i = 0; i < 10; i++) {
        total += img[i].r + img[i].g + img[i].b;
    }
    return total;
}`)
	// sum r=0..9 (45) + g=0..18 (90) + b (10) = 145
	if v.AsInt() != 145 {
		t.Errorf("got %v, want 145", v)
	}
}

func TestStructFloatField(t *testing.T) {
	v := mustRun(t, `
struct s { double w; };
int main() {
    struct s a;
    a.w = 2.5;
    a.w = a.w * 2.0;
    return (int)a.w;
}`)
	if v.AsInt() != 5 {
		t.Errorf("got %v, want 5", v)
	}
}

func TestStructFieldsHaveDistinctTraceAddresses(t *testing.T) {
	// Iteration 0 writes p.a and every later iteration reads p.b, so the
	// two fields conflict only if they share an address; q.a, written in
	// every iteration, is the one shared cell.
	src := `
struct pair { int a; int b; };
int main() {
    struct pair p, q;
    int i, x = 0;
    for (i = 0; i < 4; i++) {
        if (i == 0) p.a = 1;
        else x = p.b;
        q.a = i;
    }
    return x;
}`
	f, err := cparse.ParseFile(src)
	if err != nil {
		t.Fatal(err)
	}
	in := New(f)
	in.TraceLoop = findLoop(t, f, 0)
	in.Watch = []Watch{{Name: "i", Role: Exempt}, {Name: "x", Role: Exempt}}
	if _, err := in.Run(); err != nil {
		t.Fatal(err)
	}
	if in.Profile.MaxIter != 3 {
		t.Errorf("MaxIter = %d, want 3", in.Profile.MaxIter)
	}
	if len(in.Profile.Cells) != 1 {
		t.Errorf("cells = %+v, want q.a alone: p.a and p.b are distinct addresses", in.Profile.Cells)
	}
}

func TestArrowUnsupported(t *testing.T) {
	_, err := run(t, `
struct node { int v; };
int main() {
    struct node n;
    return n->v;
}`)
	var ue *ErrUnsupported
	if !errors.As(err, &ue) {
		t.Errorf("err = %v, want ErrUnsupported for ->", err)
	}
}

func TestUnknownFieldError(t *testing.T) {
	_, err := run(t, `
struct s { int a; };
int main() { struct s x; return x.z; }`)
	if err == nil {
		t.Error("want error for unknown field")
	}
}

func TestStructArrayBounds(t *testing.T) {
	_, err := run(t, `
struct s { int a; };
int main() { struct s arr[3]; return arr[7].a; }`)
	if err == nil {
		t.Error("want bounds error")
	}
}

func TestNestedStructUnsupported(t *testing.T) {
	_, err := run(t, `
struct inner { int v; };
struct outer { struct inner in; };
int main() { struct outer o; return 0; }`)
	var ue *ErrUnsupported
	if !errors.As(err, &ue) {
		t.Errorf("err = %v, want ErrUnsupported for nested struct", err)
	}
}
