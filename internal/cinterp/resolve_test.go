package cinterp

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"graph2par/internal/cast"
	"graph2par/internal/cparse"
)

// TestResolveRejectsBadIdentIDs checks that an AST whose identifier IDs
// do not number its identifiers once each, as only a hand-built or
// hand-edited AST can have, fails as unsupported instead of aliasing two
// names to one slot.
func TestResolveRejectsBadIdentIDs(t *testing.T) {
	const src = `int main() { int a = 1; int b = 2; return a + b; }`
	for _, tc := range []struct {
		name string
		edit func(f *cast.File, ids []*cast.Ident)
		want string
	}{
		{"shared", func(f *cast.File, ids []*cast.Ident) { ids[1].ID = ids[0].ID }, "shares ID"},
		{"out of range", func(f *cast.File, ids []*cast.Ident) { f.Idents = 1 }, "outside"},
		{"negative", func(f *cast.File, ids []*cast.Ident) { ids[0].ID = -1 }, "outside"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, err := cparse.ParseFile(src)
			if err != nil {
				t.Fatal(err)
			}
			var ids []*cast.Ident
			cast.Walk(f, func(n cast.Node) bool {
				if id, ok := n.(*cast.Ident); ok {
					ids = append(ids, id)
				}
				return true
			})
			if len(ids) != f.Idents {
				t.Fatalf("parse numbered %d identifiers, walk found %d", f.Idents, len(ids))
			}
			tc.edit(f, ids)
			_, err = New(f).Run()
			var ue *ErrUnsupported
			if !errors.As(err, &ue) || !strings.Contains(ue.What, tc.want) {
				t.Errorf("err = %v, want ErrUnsupported mentioning %q", err, tc.want)
			}
		})
	}
}

// TestBlockEntryAllocatesNothing pins that entering and leaving a block
// costs no allocation: a run whose loop enters nested blocks 1,000 times
// allocates as much as one that enters them 10 times. A declaration still
// allocates its object, once per execution.
func TestBlockEntryAllocatesNothing(t *testing.T) {
	const src = `int main() {
    int i, s = 0;
    for (i = 0; i < %d; i++) { { s += i; } if (s > 0) { s -= 1; } }
    return s;
}`
	allocs := func(n int) float64 {
		f, err := cparse.ParseFile(fmt.Sprintf(src, n))
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := New(f).Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := allocs(10), allocs(1000); many != few {
		t.Errorf("a run allocates %v times with 10 block entries and %v with 1,000; want about equal", few, many)
	}
}

// manyNamesSrc is a file of n globals and n functions, each function
// reading its own global, a local and one other global; main calls every
// 97th function.
func manyNamesSrc(n int) (src string, want int64) {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "int g%d = %d;\n", i, i)
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "int f%d(int x) { int y = x + g%d; return y + g%d; }\n", i, i, 7*i%n)
	}
	b.WriteString("int main() {\n    int s = 0;\n")
	for i := 0; i < n; i += 97 {
		fmt.Fprintf(&b, "    s += f%d(%d);\n", i, i)
		want += int64(2*i + 7*i%n)
	}
	b.WriteString("    return s;\n}\n")
	return b.String(), want
}

// TestResolveManyNames runs a file with thousands of functions and
// globals, which the resolver numbers once instead of comparing each use
// against every function and global.
func TestResolveManyNames(t *testing.T) {
	src, want := manyNamesSrc(4000)
	if v, err := run(t, src); err != nil || v.AsInt() != want {
		t.Errorf("run = %v, %v, want %d", v, err, want)
	}
}

// BenchmarkResolveManyNames is one run of a file with 4,000 functions
// and 4,000 globals; the resolver's walk is most of it.
func BenchmarkResolveManyNames(b *testing.B) {
	src, _ := manyNamesSrc(4000)
	f, err := cparse.ParseFile(src)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New(f).Run(); err != nil {
			b.Fatal(err)
		}
	}
}
