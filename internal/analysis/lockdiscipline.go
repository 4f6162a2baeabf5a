package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockDiscipline keeps the serving tier's critical sections non-blocking.
// The cache shards and the serve package's rate limiter sit on every
// request's path; a channel operation or sleep while holding one of their
// mutexes turns a nanosecond critical section into one bounded by a peer
// goroutine's progress. The pattern to follow is to update shared state
// under the lock and to block or deliver only after releasing it.
//
// The walk is flow-aware within a function: Lock()/RLock() on a
// sync.Mutex / sync.RWMutex adds the receiver to the held set, a
// matching Unlock removes it, a deferred Unlock keeps it held to
// function end (which is correct: the violations are operations done
// while held). Branches are analyzed with a copy of the held set, so the
// early-unlock-and-return idiom stays clean.
var LockDiscipline = &Analyzer{
	Name: "lockdiscipline",
	Doc: "flags channel operations and blocking calls (time.Sleep, " +
		"WaitGroup.Wait, mutex re-lock) while a cache-shard or serving-tier mutex is held",
	Match: pathMatcher("internal/cache", "internal/serve"),
	Run:   runLockDiscipline,
}

var blockingFuncs = map[string]bool{
	"time.Sleep":             true,
	"(*sync.WaitGroup).Wait": true,
	"(*os.Process).Wait":     true,
	"(*os/exec.Cmd).Run":     true,
	"(*os/exec.Cmd).Wait":    true,
}

func runLockDiscipline(pass *Pass) error {
	for _, file := range pass.Files() {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			walkHeld(pass, fd.Body.List, map[string]bool{})
		}
	}
	return nil
}

// mutexOp classifies a statement-level call on a sync mutex. It returns
// the held-set key (the rendered receiver expression, e.g. "b.mu"), and
// whether the call acquires or releases.
func mutexOp(info *types.Info, call *ast.CallExpr) (key string, acquire, release, exclusive bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false, false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
		release = true
	default:
		return "", false, false, false
	}
	exclusive = sel.Sel.Name == "Lock"
	t := info.TypeOf(sel.X)
	if t == nil {
		return "", false, false, false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return "", false, false, false
	}
	if n := named.Obj().Name(); n != "Mutex" && n != "RWMutex" {
		return "", false, false, false
	}
	return types.ExprString(sel.X), acquire, release, exclusive
}

// walkHeld processes a statement list, threading the set of held mutex
// keys through it. Compound statements hand nested lists a copy of the
// set: an acquire or release inside a branch is scoped to that branch
// (the early-unlock-and-return idiom), which errs toward missing a
// violation rather than inventing one.
func walkHeld(pass *Pass, list []ast.Stmt, held map[string]bool) {
	info := pass.TypesInfo()
	for _, stmt := range list {
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				if key, acquire, release, exclusive := mutexOp(info, call); key != "" {
					if acquire {
						if held[key] && exclusive {
							pass.Reportf(s.Pos(), "Lock of %s while already held: self-deadlock", key)
						}
						held[key] = true
					} else if release {
						delete(held, key)
					}
					continue
				}
			}
			checkBlockingIn(pass, s, held)
		case *ast.DeferStmt:
			// Deferred unlock: the mutex stays held for the remainder of
			// the function, which the held set already reflects. Nothing
			// to do; do not treat the deferred call as executing here.
		case *ast.BlockStmt:
			walkHeld(pass, s.List, copyHeld(held))
		case *ast.IfStmt:
			checkBlockingIn(pass, s.Cond, held)
			walkHeld(pass, s.Body.List, copyHeld(held))
			switch e := s.Else.(type) {
			case *ast.BlockStmt:
				walkHeld(pass, e.List, copyHeld(held))
			case *ast.IfStmt:
				walkHeld(pass, []ast.Stmt{e}, copyHeld(held))
			}
		case *ast.ForStmt:
			walkHeld(pass, s.Body.List, copyHeld(held))
		case *ast.RangeStmt:
			if len(held) > 0 {
				if t := info.TypeOf(s.X); t != nil {
					if _, ok := t.Underlying().(*types.Chan); ok {
						reportHeld(pass, s.Pos(), held, "range over channel")
					}
				}
			}
			walkHeld(pass, s.Body.List, copyHeld(held))
		case *ast.SwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					walkHeld(pass, cc.Body, copyHeld(held))
				}
			}
		case *ast.TypeSwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					walkHeld(pass, cc.Body, copyHeld(held))
				}
			}
		case *ast.SelectStmt:
			if len(held) > 0 {
				reportHeld(pass, s.Pos(), held, "select")
			}
		default:
			checkBlockingIn(pass, stmt, held)
		}
	}
}

func copyHeld(held map[string]bool) map[string]bool {
	c := make(map[string]bool, len(held))
	for k, v := range held {
		c[k] = v
	}
	return c
}

// checkBlockingIn scans one statement or expression subtree for channel
// operations and known-blocking calls, reporting each if any mutex is
// held. Function literals are skipped: their bodies run later, not under
// this critical section.
func checkBlockingIn(pass *Pass, n ast.Node, held map[string]bool) {
	if len(held) == 0 {
		return
	}
	info := pass.TypesInfo()
	ast.Inspect(n, func(inner ast.Node) bool {
		switch e := inner.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			reportHeld(pass, e.Pos(), held, "channel send")
		case *ast.UnaryExpr:
			if e.Op == token.ARROW {
				reportHeld(pass, e.Pos(), held, "channel receive")
			}
		case *ast.CallExpr:
			if sel, ok := e.Fun.(*ast.SelectorExpr); ok {
				if fn, ok := info.Uses[sel.Sel].(*types.Func); ok {
					if blockingFuncs[fn.FullName()] {
						reportHeld(pass, e.Pos(), held, "call to "+fn.FullName())
					}
				}
			}
			if key, acquire, _, exclusive := mutexOp(info, e); key != "" && acquire && exclusive && held[key] {
				reportHeld(pass, e.Pos(), held, "Lock of already-held "+key)
			}
		}
		return true
	})
}

func reportHeld(pass *Pass, pos token.Pos, held map[string]bool, what string) {
	keys := make([]string, 0, len(held))
	for k := range held {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	pass.Reportf(pos, "%s while holding %s blocks the critical section", what, strings.Join(keys, ", "))
}
