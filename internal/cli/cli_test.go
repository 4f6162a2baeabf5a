package cli

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type item struct{ name string }

var suite = []*item{{"alpha"}, {"beta"}, {"gamma"}}

func itemName(it *item) string { return it.name }

func TestSelectOnlyEmptySelectsAll(t *testing.T) {
	got, err := SelectOnly(suite, itemName, "", "check")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(suite) {
		t.Fatalf("got %d items, want %d", len(got), len(suite))
	}
}

func TestSelectOnlyPreservesUserOrder(t *testing.T) {
	got, err := SelectOnly(suite, itemName, "gamma, alpha", "check")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].name != "gamma" || got[1].name != "alpha" {
		t.Fatalf("got %v, want [gamma alpha]", got)
	}
}

func TestSelectOnlyUnknownListsNames(t *testing.T) {
	_, err := SelectOnly(suite, itemName, "delta", "analyzer")
	if err == nil {
		t.Fatal("want error for unknown name")
	}
	want := `unknown analyzer "delta" (have alpha, beta, gamma)`
	if err.Error() != want {
		t.Fatalf("error %q, want %q", err, want)
	}
}

func TestCollectSources(t *testing.T) {
	dir := t.TempDir()
	sub := filepath.Join(dir, "sub")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{
		filepath.Join(dir, "b.c"),
		filepath.Join(dir, "skip.h"),
		filepath.Join(sub, "a.c"),
	} {
		if err := os.WriteFile(p, []byte("int x;\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// The directory plus one file inside it: the duplicate dedupes, the
	// header is skipped, and the result is sorted.
	paths, err := CollectSources([]string{dir, filepath.Join(dir, "b.c")})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("got %d paths (%v), want 2", len(paths), paths)
	}
	if !strings.HasSuffix(paths[0], "b.c") || !strings.HasSuffix(paths[1], "sub/a.c") {
		t.Fatalf("got %v, want [.../b.c .../sub/a.c]", paths)
	}
}

func TestCollectSourcesMissingPath(t *testing.T) {
	if _, err := CollectSources([]string{"definitely/not/here.c"}); err == nil {
		t.Fatal("want error for missing path")
	}
}

func TestUniqueBaseNames(t *testing.T) {
	for _, tc := range []struct {
		name  string
		paths []string
		clash string // "" when the paths must be accepted
	}{
		{"none", nil, ""},
		{"distinct", []string{"a/x.c", "b/y.c", "z.c"}, ""},
		{"same path twice", []string{"a/x.c", "a/x.c"}, ""},
		{"same path spelled twice", []string{"./x.c", "x.c"}, ""},
		{"same base, other extension", []string{"a/x.c", "b/x.h"}, ""},
		{"same base in two directories", []string{"a/x.c", "b/y.c", "b/x.c"}, "a/x.c and b/x.c share the base name x.c"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := UniqueBaseNames(tc.paths)
			switch {
			case tc.clash == "" && err != nil:
				t.Errorf("unexpected error: %v", err)
			case tc.clash != "" && (err == nil || !strings.Contains(err.Error(), tc.clash)):
				t.Errorf("error %v, want one containing %q", err, tc.clash)
			}
		})
	}
}
