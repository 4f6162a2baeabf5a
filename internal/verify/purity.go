package verify

import (
	"fmt"
	"strings"

	"graph2par/internal/cast"
	"graph2par/internal/depend"
)

// impureLibc is the vetted table of libc functions whose call sites
// condemn a parallel loop outright: I/O, allocator traffic, hidden global
// state, or writes through pointer arguments the dependence analysis
// cannot see. The value is the reason phrase.
var impureLibc = map[string]string{
	"printf":  "performs I/O",
	"fprintf": "performs I/O",
	"sprintf": "writes through a pointer argument",
	"scanf":   "performs I/O",
	"fscanf":  "performs I/O",
	"sscanf":  "writes through pointer arguments",
	"puts":    "performs I/O",
	"putchar": "performs I/O",
	"getchar": "performs I/O",
	"gets":    "performs I/O",
	"fgets":   "performs I/O",
	"fputs":   "performs I/O",
	"fopen":   "performs I/O",
	"fclose":  "performs I/O",
	"fread":   "performs I/O",
	"fwrite":  "performs I/O",
	"fseek":   "performs I/O",
	"rand":    "mutates hidden global state",
	"srand":   "mutates hidden global state",
	"random":  "mutates hidden global state",
	"strtok":  "mutates hidden global state",
	"malloc":  "mutates allocator state",
	"calloc":  "mutates allocator state",
	"realloc": "mutates allocator state",
	"free":    "mutates allocator state",
	"exit":    "terminates the program",
	"abort":   "terminates the program",
	"memcpy":  "writes through a pointer argument",
	"memmove": "writes through a pointer argument",
	"memset":  "writes through a pointer argument",
	"strcpy":  "writes through a pointer argument",
	"strncpy": "writes through a pointer argument",
	"strcat":  "writes through a pointer argument",
	"strncat": "writes through a pointer argument",
}

// purityResult is the memoized purity classification of one callee.
type purityResult struct {
	level  Level
	reason string
}

// checkPurity inspects every call in the loop body. Functions defined in
// the enclosing file are analyzed recursively; library names go through
// the vetted pure (depend.PureMathFuncs) and impure tables; anything else
// is Unknown. Each distinct callee is reported once, at its first call
// site.
func checkPurity(p *Pass) {
	if p.Body == nil {
		return
	}
	seen := map[string]bool{}
	cast.Walk(p.Body, func(n cast.Node) bool {
		if c, ok := n.(*cast.Call); ok {
			if id, isIdent := c.Fun.(*cast.Ident); isIdent {
				if !seen[id.Name] {
					seen[id.Name] = true
					if r := p.callPurity(id.Name); r.level != Safe {
						p.report("purity", r.level, r.reason, c.P)
					}
				}
			} else {
				p.report("purity", Unknown, "indirect call: the callee cannot be identified", c.P)
			}
		}
		return true
	})
}

// callPurity classifies one callee by name, memoized per pass. A cycle in
// the defined-function call graph resolves to Unknown (the in-progress
// placeholder below), never to an infinite recursion.
func (p *Pass) callPurity(name string) purityResult {
	if r, ok := p.purity[name]; ok {
		return r
	}
	if fn, ok := p.Funcs[name]; ok {
		p.purity[name] = purityResult{
			level:  Unknown,
			reason: fmt.Sprintf("call to %q: recursion defeats the purity analysis", name),
		}
		r := analyzeFuncPurity(p, fn)
		p.purity[name] = r
		return r
	}
	var r purityResult
	switch {
	case depend.PureMathFuncs[name]:
		r = purityResult{level: Safe}
	case impureLibc[name] != "":
		r = purityResult{level: Unsafe, reason: fmt.Sprintf("call to %q %s", name, impureLibc[name])}
	default:
		r = purityResult{level: Unknown, reason: fmt.Sprintf("call to unknown function %q", name)}
	}
	p.purity[name] = r
	return r
}

// analyzeFuncPurity decides whether a defined function is pure enough to
// call from a parallel iteration: it may write its locals and its
// by-value parameters, but any write through a pointer parameter or to a
// non-local condemns it, and its own calls are classified recursively.
func analyzeFuncPurity(p *Pass, fn *cast.FuncDecl) purityResult {
	params := map[string]bool{}
	ptrParams := map[string]bool{}
	for _, prm := range fn.Params {
		params[prm.Name] = true
		if prm.Pointer > 0 || prm.ArrayDims > 0 {
			ptrParams[prm.Name] = true
		}
	}
	locals := cast.DeclaredNames(fn.Body)
	worst := purityResult{level: Safe}
	consider := func(lv Level, reason string) {
		if lv > worst.level {
			worst = purityResult{level: lv, reason: reason}
		}
	}
	for _, a := range depend.CollectAccesses(fn.Body) {
		if !a.Write {
			continue
		}
		root := a.Base
		if i := strings.IndexByte(root, '.'); i >= 0 {
			root = root[:i] // member access: classify by the base object
		}
		switch {
		case locals[root]:
			// local state: fine
		case ptrParams[root]:
			consider(Unsafe, fmt.Sprintf("call to %q writes through its pointer parameter %q", fn.Name, root))
		case params[root]:
			// by-value parameter: the write touches the callee's copy
		default:
			consider(Unsafe, fmt.Sprintf("call to %q writes non-local variable %q", fn.Name, root))
		}
	}
	cast.Walk(fn.Body, func(n cast.Node) bool {
		if c, ok := n.(*cast.Call); ok {
			if id, isIdent := c.Fun.(*cast.Ident); isIdent {
				if r := p.callPurity(id.Name); r.level != Safe {
					consider(r.level, r.reason)
				}
			} else {
				consider(Unknown, fmt.Sprintf("call to %q makes an indirect call", fn.Name))
			}
		}
		return true
	})
	return worst
}
