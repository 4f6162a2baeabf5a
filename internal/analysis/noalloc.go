package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NoAlloc guards the −92% allocs/op the PR-5 arena front-end bought.
// Functions whose doc comment carries //graph2lint:noalloc are hot paths
// expected to allocate nothing per operation; this analyzer rejects the
// constructs that defeat that:
//
//   - map and slice literals, make, new — fresh heap objects;
//   - function literals, method values and go statements — closure and
//     goroutine allocations;
//   - fmt.* and errors.* calls, non-constant string concatenation, and
//     string<->[]byte/[]rune conversions — hidden allocators;
//   - append to a function-local slice declared without an initializer —
//     a buffer that can never amortize across calls (pooled buffers are
//     fields, parameters or globals, and those appends are allowed:
//     their growth amortizes to zero);
//   - boxing a non-pointer-shaped concrete value into an interface —
//     assignments, call arguments and returns;
//   - calls to functions that are not themselves marked noalloc (or in
//     the small always-safe set), including dynamic calls — this is the
//     forcing function that makes annotations transitive instead of
//     decorative.
//
// Amortized growth inside pool implementations (a slab acquiring a new
// chunk, a pool constructing its first scratch) is the one legitimate
// allocation in this discipline; those sites carry
// //graph2lint:allow noalloc -- <reason>.
var NoAlloc = &Analyzer{
	Name: "noalloc",
	Doc: "checks //graph2lint:noalloc functions for allocation-inducing " +
		"constructs",
	Run: runNoAlloc,
}

// alwaysSafePkgs are stdlib packages whose exported functions never
// allocate (pure arithmetic/bit twiddling), so calls into them need no
// annotation.
var alwaysSafePkgs = map[string]bool{
	"math":         true,
	"math/bits":    true,
	"unicode/utf8": true,
	"unsafe":       true,
}

// alwaysSafeFuncs are individual stdlib functions vetted as non-allocating:
// pure searches and substring slicing (substrings share the original
// backing array). Keyed by types.Func FullName. Extend only with functions
// whose implementation provably returns views, never copies.
var alwaysSafeFuncs = map[string]bool{
	"strings.HasPrefix":  true,
	"strings.HasSuffix":  true,
	"strings.TrimSpace":  true,
	"strings.TrimPrefix": true,
	"strings.TrimSuffix": true,
	"strings.Index":      true,
	"strings.IndexByte":  true,
	"strings.Contains":   true,
	"strings.EqualFold":  true,
	"bytes.Equal":        true,
	// Scheduler queries read runtime state without allocating.
	"runtime.GOMAXPROCS": true,
	"runtime.NumCPU":     true,
	// Mutex operations may block but never allocate; pooled checkouts
	// take a lock on every Get/Put.
	"(*sync.Mutex).Lock":      true,
	"(*sync.Mutex).Unlock":    true,
	"(*sync.RWMutex).Lock":    true,
	"(*sync.RWMutex).Unlock":  true,
	"(*sync.RWMutex).RLock":   true,
	"(*sync.RWMutex).RUnlock": true,
	// Stopping a timer only unlinks it from the runtime's timer heap.
	"(*time.Timer).Stop": true,
}

func runNoAlloc(pass *Pass) error {
	info := pass.TypesInfo()
	for _, file := range pass.Files() {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := info.Defs[fd.Name].(*types.Func)
			if fn == nil || !pass.Pkg.Directives.NoAlloc(fn) {
				continue
			}
			checkNoAllocFunc(pass, fd, fn)
		}
	}
	return nil
}

func checkNoAllocFunc(pass *Pass, fd *ast.FuncDecl, fn *types.Func) {
	info := pass.TypesInfo()

	// Parents let the method-value check distinguish x.M (closure) from
	// x.M() (direct call), and let bare locals with no initializer be
	// found for the append rule.
	parent := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parent[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})

	// Locals declared `var x []T` (no initializer): appends to them can
	// never reuse caller- or pool-owned capacity.
	bareLocals := make(map[types.Object]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		spec, ok := n.(*ast.ValueSpec)
		if !ok || len(spec.Values) != 0 {
			return true
		}
		for _, name := range spec.Names {
			if obj := info.Defs[name]; obj != nil {
				if _, isSlice := obj.Type().Underlying().(*types.Slice); isSlice {
					bareLocals[obj] = true
				}
			}
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			switch info.TypeOf(n).Underlying().(type) {
			case *types.Map:
				pass.Reportf(n.Pos(), "map literal allocates in noalloc function %s", fn.Name())
			case *types.Slice:
				pass.Reportf(n.Pos(), "slice literal allocates in noalloc function %s", fn.Name())
			}
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "function literal allocates a closure in noalloc function %s", fn.Name())
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "go statement allocates a goroutine in noalloc function %s", fn.Name())
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[n]; ok && sel.Kind() == types.MethodVal {
				if call, ok := parent[n].(*ast.CallExpr); !ok || call.Fun != n {
					pass.Reportf(n.Pos(), "method value %s allocates a closure in noalloc function %s",
						sel.Obj().Name(), fn.Name())
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && info.Types[n].Value == nil {
				if t := info.TypeOf(n); t != nil && isString(t) {
					pass.Reportf(n.Pos(), "string concatenation allocates in noalloc function %s", fn.Name())
				}
			}
		case *ast.AssignStmt:
			checkBoxedAssign(pass, fn, n)
		case *ast.ValueSpec:
			if n.Type != nil {
				lhsT := info.TypeOf(n.Type)
				for _, v := range n.Values {
					reportIfBoxed(pass, fn, lhsT, v, "assignment")
				}
			}
		case *ast.ReturnStmt:
			results := fn.Type().(*types.Signature).Results()
			if len(n.Results) == results.Len() {
				for i, r := range n.Results {
					reportIfBoxed(pass, fn, results.At(i).Type(), r, "return")
				}
			}
		case *ast.CallExpr:
			checkNoAllocCall(pass, fn, n, bareLocals, parent)
		}
		return true
	})
}

func checkBoxedAssign(pass *Pass, fn *types.Func, n *ast.AssignStmt) {
	if n.Tok == token.DEFINE || len(n.Lhs) != len(n.Rhs) {
		return // := infers the dynamic type; no interface target possible
	}
	info := pass.TypesInfo()
	for i, lhs := range n.Lhs {
		if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
			continue
		}
		reportIfBoxed(pass, fn, info.TypeOf(lhs), n.Rhs[i], "assignment")
	}
}

func checkNoAllocCall(pass *Pass, fn *types.Func, call *ast.CallExpr, bareLocals map[types.Object]bool, parent map[ast.Node]ast.Node) {
	info := pass.TypesInfo()

	// Conversions: T(x) with an allocating representation change.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		target := tv.Type
		if len(call.Args) == 1 {
			src := info.TypeOf(call.Args[0])
			if src != nil && allocatingConversion(target, src) && !mapIndexKey(info, call, parent) {
				pass.Reportf(call.Pos(), "conversion %s(%s) allocates in noalloc function %s",
					target.String(), src.String(), fn.Name())
			}
			if isInterface(target) {
				reportIfBoxed(pass, fn, target, call.Args[0], "conversion")
			}
		}
		return
	}

	// Builtins.
	if obj := calleeObject(info, call); obj != nil {
		if b, ok := obj.(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				pass.Reportf(call.Pos(), "make allocates in noalloc function %s", fn.Name())
			case "new":
				pass.Reportf(call.Pos(), "new allocates in noalloc function %s", fn.Name())
			case "append":
				if len(call.Args) > 0 {
					if id, ok := call.Args[0].(*ast.Ident); ok {
						if bareLocals[info.ObjectOf(id)] {
							pass.Reportf(call.Pos(),
								"append to function-local slice %s allocates per call in noalloc "+
									"function %s; use a pooled or caller-owned buffer", id.Name, fn.Name())
						}
					}
				}
			}
			return
		}
		if callee, ok := obj.(*types.Func); ok {
			checkCallee(pass, fn, call, callee)
		} else if _, ok := obj.(*types.Var); ok {
			pass.Reportf(call.Pos(), "indirect call through %s may allocate in noalloc function %s",
				obj.Name(), fn.Name())
		}
	} else if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			if f, ok := s.Obj().(*types.Func); ok {
				checkCallee(pass, fn, call, f)
			}
		}
	}

	checkBoxedArgs(pass, fn, call)
}

func checkCallee(pass *Pass, fn *types.Func, call *ast.CallExpr, callee *types.Func) {
	pkg := callee.Pkg()
	if pkg == nil {
		// Universe-scope methods (error.Error) — dynamic dispatch.
		pass.Reportf(call.Pos(), "dynamic call to %s may allocate in noalloc function %s",
			callee.Name(), fn.Name())
		return
	}
	full := callee.Origin().FullName()
	switch {
	case pkg.Path() == "fmt" || pkg.Path() == "errors":
		pass.Reportf(call.Pos(), "call to %s allocates in noalloc function %s", full, fn.Name())
	case alwaysSafePkgs[pkg.Path()] || alwaysSafeFuncs[full]:
	case pass.IsNoAlloc(callee):
	case isInterfaceMethod(callee):
		pass.Reportf(call.Pos(), "dynamic call to %s may allocate in noalloc function %s",
			full, fn.Name())
	default:
		pass.Reportf(call.Pos(), "call from noalloc function %s to unannotated %s; "+
			"mark the callee //graph2lint:noalloc or vet this site", fn.Name(), full)
	}
}

func checkBoxedArgs(pass *Pass, fn *types.Func, call *ast.CallExpr) {
	info := pass.TypesInfo()
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < params.Len()-1 || (i == params.Len()-1 && !sig.Variadic()):
			pt = params.At(i).Type()
		case sig.Variadic() && call.Ellipsis == token.NoPos:
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		default: // f(xs...) passes the slice through unboxed
			continue
		}
		reportIfBoxed(pass, fn, pt, arg, "argument")
	}
}

// reportIfBoxed flags storing a non-pointer-shaped concrete value into an
// interface-typed slot: the runtime must heap-allocate the value's box.
// Pointer-shaped values (pointers, channels, maps, funcs, unsafe.Pointer)
// ride in the interface word directly.
func reportIfBoxed(pass *Pass, fn *types.Func, target types.Type, val ast.Expr, what string) {
	if target == nil || !isInterface(target) {
		return
	}
	info := pass.TypesInfo()
	tv, ok := info.Types[val]
	if !ok || tv.Type == nil {
		return
	}
	if tv.IsNil() || isInterface(tv.Type) || pointerShaped(tv.Type) {
		return
	}
	pass.Reportf(val.Pos(), "%s boxes %s into %s (heap allocation) in noalloc function %s",
		what, tv.Type.String(), target.String(), fn.Name())
}

// unparen strips parentheses (ast.Unparen needs Go 1.22; CI builds 1.21).
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

func calleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	case *ast.IndexExpr: // generic instantiation f[T](...)
		if id, ok := fun.X.(*ast.Ident); ok {
			return info.Uses[id]
		}
	case *ast.IndexListExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			return info.Uses[id]
		}
	}
	return nil
}

func isInterface(t types.Type) bool {
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isInterfaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return isInterface(sig.Recv().Type())
}

func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return t.Underlying().(*types.Basic).Kind() == types.UnsafePointer
	}
	return false
}

// mapIndexKey reports whether the conversion is the key of a map lookup,
// m[string(b)] — the compiler elides that copy (mapaccess_faststr), so
// the interner's zero-alloc lookup idiom stays legal.
func mapIndexKey(info *types.Info, call *ast.CallExpr, parent map[ast.Node]ast.Node) bool {
	idx, ok := parent[call].(*ast.IndexExpr)
	if !ok || idx.Index != call {
		return false
	}
	_, isMap := info.TypeOf(idx.X).Underlying().(*types.Map)
	return isMap
}

// allocatingConversion reports conversions that copy their operand:
// string <-> []byte and string <-> []rune in either direction.
func allocatingConversion(dst, src types.Type) bool {
	return (isString(dst) && isByteOrRuneSlice(src)) ||
		(isByteOrRuneSlice(dst) && isString(src))
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8 || b.Kind() == types.Rune || b.Kind() == types.Int32)
}
