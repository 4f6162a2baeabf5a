// Package analysis is graph2par's custom static-analysis layer: a small,
// dependency-free re-implementation of the golang.org/x/tools/go/analysis
// analyzer shape (Analyzer, Pass, Diagnostic) plus the repo-specific
// directive grammar that drives it. The container this repo builds in has
// no module proxy, so the framework is built entirely on the standard
// library: go/parser for syntax, go/types for semantics, and `go list
// -export -deps -json` (see load.go) for package discovery and export
// data.
//
// Four analyzers enforce the invariants PRs 3-5 paid for:
//
//   - determinism: no map iteration order, wall-clock reads or math/rand
//     on the gradient/checkpoint/reduction path;
//   - noalloc: functions annotated //graph2lint:noalloc contain no
//     allocation-inducing constructs;
//   - poolsafe: values checked out of the scratch pools never outlive
//     their Put/Free;
//   - lockdiscipline: no channel operations or blocking calls while a
//     cache-shard or serving-tier mutex is held.
//
// See directive.go for the //graph2lint: comment grammar that annotates
// vetted exceptions.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer is one named invariant check. Run inspects a single
// type-checked package through its Pass and reports violations via
// Pass.Reportf.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //graph2lint:allow directives. Lower-case, no spaces.
	Name string

	// Doc is a one-paragraph description shown by `graph2lint -list`.
	Doc string

	// Match, when non-nil, restricts the analyzer to packages whose
	// import path it accepts. The multichecker consults it; the test
	// harness runs analyzers unconditionally so corpora need not mimic
	// repo paths.
	Match func(importPath string) bool

	// Run performs the check. Diagnostics go through pass.Reportf so the
	// allow-directive machinery sees them.
	Run func(pass *Pass) error
}

// A Diagnostic is one reported violation, with the position already
// resolved so callers need no FileSet.
type Diagnostic struct {
	Pos      token.Position `json:"-"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Col      int            `json:"col"`
	Analyzer string         `json:"analyzer"`
	Message  string         `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// A Pass connects one Analyzer to one loaded package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	// marked is the union of //graph2lint:noalloc marks across every
	// package in the run, keyed by types.Func FullName — pointer identity
	// does not survive the export-data/source split, names do.
	marked map[string]bool

	diags *[]Diagnostic
}

// IsNoAlloc reports whether fn (possibly an instantiation) was marked
// //graph2lint:noalloc in any package of this run.
func (p *Pass) IsNoAlloc(fn *types.Func) bool {
	return fn != nil && p.marked[fn.Origin().FullName()]
}

// Fset returns the FileSet the package was parsed into.
func (p *Pass) Fset() *token.FileSet { return p.Pkg.Fset }

// Files returns the package's parsed syntax trees (non-test files only).
func (p *Pass) Files() []*ast.File { return p.Pkg.Syntax }

// TypesInfo returns the package's type-checker results.
func (p *Pass) TypesInfo() *types.Info { return p.Pkg.Info }

// Reportf records a diagnostic at pos unless an allow directive for this
// analyzer covers the position.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	if p.Pkg.Directives.allowed(p.Analyzer.Name, position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run applies each analyzer to each package (respecting Match filters),
// prepends any directive-syntax errors found at load time, and returns
// the combined diagnostics sorted by position. Analyzer errors (not
// violations — internal failures) abort the run.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	// Allow directives may name analyzers outside this run's selection
	// (-only narrows the run, not the grammar): a name is unknown only
	// if neither the registry nor the running set has it.
	known := make(map[string]bool, len(analyzers))
	for _, a := range All() {
		known[a.Name] = true
	}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	marked := make(map[string]bool)
	for _, pkg := range pkgs {
		for _, name := range pkg.Directives.noallocNames {
			marked[name] = true
		}
	}
	for _, pkg := range pkgs {
		diags = append(diags, pkg.Directives.validate(known)...)
		for _, a := range analyzers {
			if a.Match != nil && !a.Match(pkg.ImportPath) {
				continue
			}
			pass := &Pass{Analyzer: a, Pkg: pkg, marked: marked, diags: &diags}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: analyzing %s: %w", a.Name, pkg.ImportPath, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// All returns the full analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{Determinism, NoAlloc, PoolSafe, LockDiscipline}
}
