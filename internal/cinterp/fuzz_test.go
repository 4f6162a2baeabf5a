package cinterp

import (
	"os"
	"path/filepath"
	"testing"

	"graph2par/internal/cast"
	"graph2par/internal/cparse"
)

// FuzzRun holds the interpreter to two properties on any source the
// parser accepts, since it runs untrusted C behind /v1:
//
//   - Run under a small step budget returns a value or an error and never
//     panics;
//   - tracing the file's first for loop, with every name its body uses
//     watched and captured, changes neither the value nor the error.
//
// The second holds under the small budget although a traced run has a
// bound the untraced one lacks: a fresh profile chunk takes an array
// access, at least two steps, so 20,000 steps cannot reach the
// maxProfileChunks (15,625) bound.
func FuzzRun(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "c", "*.c"))
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(raw))
	}
	for _, tc := range scopeCases {
		f.Add(tc.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		file, err := cparse.ParseFile(src)
		if err != nil {
			t.Skip()
		}
		in := New(file)
		in.MaxSteps = 20_000
		want, wantErr := in.Run()

		var loop *cast.For
		for _, l := range file.Loops() {
			if fl, ok := l.Loop.(*cast.For); ok {
				loop = fl
				break
			}
		}
		if loop == nil {
			return
		}
		traced := New(file)
		traced.MaxSteps = 20_000
		traced.TraceLoop = loop
		cast.Walk(loop, func(n cast.Node) bool {
			if id, ok := n.(*cast.Ident); ok {
				traced.Watch = append(traced.Watch, Watch{Name: id.Name})
				traced.CaptureNames = append(traced.CaptureNames, id.Name)
			}
			return true
		})
		got, gotErr := traced.Run()
		if got != want || errText(gotErr) != errText(wantErr) {
			t.Fatalf("traced run = %+v, %v; untraced = %+v, %v\n%s", got, gotErr, want, wantErr, src)
		}
	})
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
