package cinterp

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"graph2par/internal/cast"
	"graph2par/internal/cparse"
	"graph2par/internal/depend"
)

// nestBenchSrc is the slowest shape of the rewrite benchmark pool: a
// 2,880 × 15 reduction nest, traced on its outer loop.
const nestBenchSrc = `double vals[2880][15];
int main() {
    double x = 0.0;
    int k, w;
    for (k = 0; k < 2880; k++)
        for (w = 0; w < 15; w++)
            vals[k][w] = k * 0.5 + w;
    for (k = 0; k < 2880; k++) {
        for (w = 0; w < 15; w++) {
            x += vals[k][w];
        }
    }
    return (int)x;
}`

// benchLoop is one traced loop of a benchmark program: its induction
// variable and every name its body uses.
type benchLoop struct {
	name  string
	file  *cast.File
	loop  *cast.For
	iv    string
	names []string
}

// benchLoops returns every for loop of the examples/c files that define
// main, then the outer loop of the rewrite pool's slowest nest.
func benchLoops(b *testing.B) []benchLoop {
	b.Helper()
	type prog struct{ name, src string }
	var progs []prog
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "c", "*.c"))
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			b.Fatal(err)
		}
		if strings.Contains(string(raw), "int main(") {
			progs = append(progs, prog{filepath.Base(p), string(raw)})
		}
	}
	var out []benchLoop
	for _, p := range progs {
		f, err := cparse.ParseFile(p.src)
		if err != nil {
			b.Fatal(err)
		}
		for _, l := range f.Loops() {
			if loop, ok := l.Loop.(*cast.For); ok {
				out = append(out, newBenchLoop(p.name, f, loop))
			}
		}
	}
	f, err := cparse.ParseFile(nestBenchSrc)
	if err != nil {
		b.Fatal(err)
	}
	out = append(out, newBenchLoop("nest", f, f.Loops()[2].Loop.(*cast.For)))
	return out
}

func newBenchLoop(name string, f *cast.File, loop *cast.For) benchLoop {
	var names []string
	cast.Walk(loop, func(n cast.Node) bool {
		if id, ok := n.(*cast.Ident); ok && !slices.Contains(names, id.Name) {
			names = append(names, id.Name)
		}
		return true
	})
	slices.Sort(names)
	return benchLoop{name: name, file: f, loop: loop, iv: depend.ExtractLoop(loop).IndVar, names: names}
}

// BenchmarkInterpProfiled is one forward run per loop with the loop's
// accesses profiled, the run DiscoPoP and the rewrite oracle's serial
// probe make.
func BenchmarkInterpProfiled(b *testing.B) {
	loops := benchLoops(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, l := range loops {
			in := New(l.file)
			in.TraceLoop = l.loop
			for _, n := range l.names {
				role := Named
				if n == l.iv {
					role = Exempt
				}
				in.Watch = append(in.Watch, Watch{Name: n, Role: role})
			}
			if _, err := in.Run(); err != nil {
				b.Fatalf("%s: %v", l.name, err)
			}
		}
	}
}

// BenchmarkInterpReversed is one reversed run per loop with every name
// the body uses captured at the loop's exits, the rewrite oracle's
// second probe.
func BenchmarkInterpReversed(b *testing.B) {
	loops := benchLoops(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, l := range loops {
			in := New(l.file)
			in.TraceLoop = l.loop
			in.ReverseOrder = true
			in.ReverseIndVar = l.iv
			in.CaptureNames = l.names
			if _, err := in.Run(); err != nil {
				b.Fatalf("%s: %v", l.name, err)
			}
		}
	}
}
