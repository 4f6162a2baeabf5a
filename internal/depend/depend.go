// Package depend implements the static dependence-analysis primitives the
// algorithm-based comparator tools (autoPar, PLUTO) are built on: loop
// normalization, memory-access extraction, affine subscript analysis with
// GCD/distance dependence tests, scalar usage classification, and
// reduction-pattern recognition. LoopExits is the one scan for the early
// exits (break, goto, return) that the comparator tools and the verifier
// all reject.
package depend

import (
	"fmt"
	"sort"

	"graph2par/internal/cast"
)

// LoopInfo is the normalized form of a countable for-loop:
// for (iv = Lower; iv </<= Upper; iv += Step).
type LoopInfo struct {
	Loop   *cast.For
	IndVar string
	Lower  cast.Expr
	Upper  cast.Expr
	Step   int64 // signed; 0 when non-constant
	// StepSym names a loop-invariant symbolic stride (`i += step`); empty
	// when the stride is the constant Step.
	StepSym   string
	Inclusive bool // <= vs <
	// Canonical reports whether the loop matched the normalized pattern at
	// all (induction variable recognized, monotone constant or symbolic
	// stride).
	Canonical bool
}

// ExtractLoop normalizes a for-loop. Canonical is false when the loop does
// not match `for (iv = e0; iv < e1; iv += c)` and its variants.
func ExtractLoop(f *cast.For) LoopInfo {
	info := LoopInfo{Loop: f}

	// init: iv = expr  |  type iv = expr
	switch init := f.Init.(type) {
	case *cast.ExprStmt:
		if asn, ok := init.X.(*cast.Assign); ok && asn.Op == "=" {
			if id, ok := asn.LHS.(*cast.Ident); ok {
				info.IndVar = id.Name
				info.Lower = asn.RHS
			}
		}
	case *cast.DeclStmt:
		if len(init.Decls) == 1 && init.Decls[0].Init != nil {
			info.IndVar = init.Decls[0].Name
			info.Lower = init.Decls[0].Init
		}
	}
	if info.IndVar == "" {
		return info
	}

	// cond: iv < e | iv <= e | iv > e | iv >= e | e > iv ...
	bin, ok := f.Cond.(*cast.Binary)
	if !ok {
		return info
	}
	switch {
	case identNamed(bin.X, info.IndVar):
		switch bin.Op {
		case "<":
			info.Upper = bin.Y
		case "<=":
			info.Upper, info.Inclusive = bin.Y, true
		case ">":
			info.Upper = bin.Y
		case ">=":
			info.Upper, info.Inclusive = bin.Y, true
		case "!=":
			info.Upper = bin.Y
		default:
			return info
		}
	case identNamed(bin.Y, info.IndVar):
		switch bin.Op {
		case ">":
			info.Upper = bin.X
		case ">=":
			info.Upper, info.Inclusive = bin.X, true
		case "<":
			info.Upper = bin.X
		case "<=":
			info.Upper, info.Inclusive = bin.X, true
		default:
			return info
		}
	default:
		return info
	}

	// post: iv++ | ++iv | iv-- | iv += c | iv -= c | iv = iv + c
	switch post := f.Post.(type) {
	case *cast.Unary:
		if identNamed(post.X, info.IndVar) {
			switch post.Op {
			case "++":
				info.Step = 1
			case "--":
				info.Step = -1
			}
		}
	case *cast.Assign:
		if identNamed(post.LHS, info.IndVar) {
			switch post.Op {
			case "+=":
				if c, ok := constInt(post.RHS); ok {
					info.Step = c
				} else if id, ok := post.RHS.(*cast.Ident); ok {
					info.StepSym = id.Name
				}
			case "-=":
				if c, ok := constInt(post.RHS); ok {
					info.Step = -c
				}
			case "=":
				if b, ok := post.RHS.(*cast.Binary); ok {
					if b.Op == "+" && identNamed(b.X, info.IndVar) {
						if c, ok := constInt(b.Y); ok {
							info.Step = c
						} else if id, ok := b.Y.(*cast.Ident); ok {
							info.StepSym = id.Name
						}
					}
					if b.Op == "+" && identNamed(b.Y, info.IndVar) {
						if c, ok := constInt(b.X); ok {
							info.Step = c
						}
					}
					if b.Op == "-" && identNamed(b.X, info.IndVar) {
						if c, ok := constInt(b.Y); ok {
							info.Step = -c
						}
					}
				}
			}
		}
	}
	info.Canonical = (info.Step != 0 || info.StepSym != "") && info.Upper != nil
	return info
}

func identNamed(e cast.Expr, name string) bool {
	id, ok := e.(*cast.Ident)
	return ok && id.Name == name
}

func constInt(e cast.Expr) (int64, bool) {
	switch x := e.(type) {
	case *cast.IntLit:
		return x.Value, true
	case *cast.Unary:
		if x.Op == "-" && !x.Postfix {
			if v, ok := constInt(x.X); ok {
				return -v, true
			}
		}
	}
	return 0, false
}

// ---------------------------------------------------------------------------
// memory accesses

// Access is one scalar or array memory access in a loop body.
type Access struct {
	// Base is the variable name of the access (array base or scalar name).
	Base string
	// Subscripts are the index expressions, outermost first; empty for
	// scalars.
	Subscripts []cast.Expr
	Write      bool
	// InCall marks accesses appearing inside a function-call argument
	// (value flows into unknown code).
	InCall bool
	// Conditional marks accesses under an if/switch within the loop body.
	Conditional bool
	// ViaPointer marks accesses through pointer dereference or member
	// chains, which defeat the affine tests.
	ViaPointer bool
	Node       cast.Node
}

// HasCalls reports whether the statement contains any function call, and
// returns the set of callee names.
func HasCalls(s cast.Node) (bool, []string) {
	set := map[string]bool{}
	cast.Walk(s, func(n cast.Node) bool {
		if c, ok := n.(*cast.Call); ok {
			if id, ok := c.Fun.(*cast.Ident); ok {
				set[id.Name] = true
			} else {
				set["<indirect>"] = true
			}
		}
		return true
	})
	if len(set) == 0 {
		return false, nil
	}
	names := make([]string, 0, len(set))
	for k := range set {
		names = append(names, k)
	}
	sort.Strings(names)
	return true, names
}

// PureMathFuncs lists C math-library functions known to be free of side
// effects. The dynamic tool whitelists them; the conservative static tools
// deliberately do not (that gap is the paper's Listing 1/3 failure mode).
var PureMathFuncs = map[string]bool{
	"fabs": true, "abs": true, "sqrt": true, "sqrtf": true, "sin": true,
	"cos": true, "tan": true, "exp": true, "log": true, "log2": true,
	"log10": true, "pow": true, "floor": true, "ceil": true, "fmin": true,
	"fmax": true, "fmod": true, "atan": true, "atan2": true, "asin": true,
	"acos": true, "sinh": true, "cosh": true, "tanh": true, "round": true,
	"trunc": true, "hypot": true, "cbrt": true, "expm1": true, "log1p": true,
	"labs": true, "llabs": true, "fabsf": true, "sinf": true, "cosf": true,
	"expf": true, "logf": true, "powf": true,
}

type collector struct {
	accesses []Access
	inCall   int
	cond     int
}

// CollectAccesses extracts every scalar/array access in the loop body.
// The loop control expressions (init/cond/post) are excluded: only body
// accesses participate in cross-iteration dependence.
func CollectAccesses(body cast.Stmt) []Access {
	c := &collector{}
	c.stmt(body)
	return c.accesses
}

func (c *collector) stmt(s cast.Stmt) {
	switch x := s.(type) {
	case nil:
	case *cast.Compound:
		for _, it := range x.Items {
			c.stmt(it)
		}
	case *cast.ExprStmt:
		c.expr(x.X, false)
	case *cast.DeclStmt:
		for _, d := range x.Decls {
			if d.Init != nil {
				c.expr(d.Init, false)
			}
			// the declaration itself writes the (local) variable
			c.accesses = append(c.accesses, Access{
				Base: d.Name, Write: true,
				Conditional: c.cond > 0, Node: d,
			})
		}
	case *cast.If:
		c.expr(x.Cond, false)
		c.cond++
		c.stmt(x.Then)
		if x.Else != nil {
			c.stmt(x.Else)
		}
		c.cond--
	case *cast.For:
		// A nested loop's init runs unconditionally, but its body (and
		// post) only run when the inner trip count is positive — writes
		// there cannot conservatively prove write-before-read for the
		// enclosing loop.
		c.stmt(x.Init)
		if x.Cond != nil {
			c.expr(x.Cond, false)
		}
		c.cond++
		if x.Post != nil {
			c.expr(x.Post, false)
		}
		c.stmt(x.Body)
		c.cond--
	case *cast.While:
		c.expr(x.Cond, false)
		c.cond++
		c.stmt(x.Body)
		c.cond--
	case *cast.DoWhile:
		// a do-while body runs at least once: unconditional
		c.stmt(x.Body)
		c.expr(x.Cond, false)
	case *cast.Return:
		if x.X != nil {
			c.expr(x.X, false)
		}
	case *cast.Switch:
		c.expr(x.Cond, false)
		c.cond++
		c.stmt(x.Body)
		c.cond--
	default:
		// Break/Continue/Empty/Label/Goto/Case: no accesses
	}
}

func (c *collector) expr(e cast.Expr, write bool) {
	switch x := e.(type) {
	case nil:
	case *cast.Ident:
		c.accesses = append(c.accesses, Access{
			Base: x.Name, Write: write,
			InCall: c.inCall > 0, Conditional: c.cond > 0, Node: x,
		})
	case *cast.IntLit, *cast.FloatLit, *cast.CharLit, *cast.StringLit:
	case *cast.Index:
		base, subs, viaPtr := flattenIndex(x)
		c.accesses = append(c.accesses, Access{
			Base: base, Subscripts: subs, Write: write, ViaPointer: viaPtr,
			InCall: c.inCall > 0, Conditional: c.cond > 0, Node: x,
		})
		for _, s := range subs {
			c.expr(s, false)
		}
	case *cast.Unary:
		switch x.Op {
		case "++", "--":
			c.expr(x.X, false) // reads the old value first
			c.expr(x.X, true)
		case "*":
			// pointer dereference: possible alias, conservative
			c.exprPtr(x.X, write)
		case "&":
			c.expr(x.X, false)
		default:
			c.expr(x.X, false)
		}
	case *cast.Binary:
		c.expr(x.X, false)
		c.expr(x.Y, false)
	case *cast.Assign:
		// Evaluation order: RHS (and the LHS read of a compound op) happen
		// before the store, which matters for first-access classification.
		c.expr(x.RHS, false)
		if x.Op != "=" {
			c.expr(x.LHS, false) // compound assignment also reads
		}
		c.expr(x.LHS, true)
	case *cast.Conditional:
		c.expr(x.Cond, false)
		c.expr(x.Then, false)
		c.expr(x.Else, false)
	case *cast.Call:
		c.inCall++
		for _, a := range x.Args {
			c.expr(a, false)
		}
		c.inCall--
	case *cast.Member:
		base := memberBase(x)
		c.accesses = append(c.accesses, Access{
			Base: base, Write: write, ViaPointer: true,
			InCall: c.inCall > 0, Conditional: c.cond > 0, Node: x,
		})
	case *cast.CastExpr:
		c.expr(x.X, write)
	case *cast.SizeofExpr:
	case *cast.Comma:
		c.expr(x.X, false)
		c.expr(x.Y, write)
	case *cast.InitList:
		for _, el := range x.Elems {
			c.expr(el, false)
		}
	}
}

func (c *collector) exprPtr(e cast.Expr, write bool) {
	// A *p access: record as a pointer access on the base identifier,
	// keeping the write flag — `*p = v` stores through p.
	if id, ok := e.(*cast.Ident); ok {
		c.accesses = append(c.accesses, Access{
			Base: id.Name, Write: write, ViaPointer: true,
			InCall: c.inCall > 0, Conditional: c.cond > 0, Node: id,
		})
		return
	}
	c.expr(e, false)
}

// flattenIndex turns a[i][j] into base "a" and subscripts [i, j].
func flattenIndex(idx *cast.Index) (base string, subs []cast.Expr, viaPtr bool) {
	cur := cast.Expr(idx)
	for {
		ix, ok := cur.(*cast.Index)
		if !ok {
			break
		}
		subs = append([]cast.Expr{ix.Idx}, subs...)
		cur = ix.Arr
	}
	switch b := cur.(type) {
	case *cast.Ident:
		return b.Name, subs, false
	case *cast.Member:
		return memberBase(b), subs, true
	case *cast.Unary:
		if id, ok := b.X.(*cast.Ident); ok {
			return id.Name, subs, true
		}
	}
	return "<complex>", subs, true
}

func memberBase(m *cast.Member) string {
	cur := cast.Expr(m)
	for {
		switch x := cur.(type) {
		case *cast.Member:
			cur = x.X
		case *cast.Index:
			cur = x.Arr
		case *cast.Ident:
			return x.Name + "." + m.Name
		default:
			return "<complex>." + m.Name
		}
	}
}

// ---------------------------------------------------------------------------
// affine forms

// Affine is an affine expression c0 + Σ coeff[v]·v over integer variables.
type Affine struct {
	Const  int64
	Coeffs map[string]int64
}

// AffineOf tries to express e as an affine combination of identifiers.
// Returns ok=false for non-affine expressions (calls, products of
// variables, subscripted reads, ...).
func AffineOf(e cast.Expr) (Affine, bool) {
	switch x := e.(type) {
	case *cast.IntLit:
		return Affine{Const: x.Value, Coeffs: map[string]int64{}}, true
	case *cast.Ident:
		return Affine{Coeffs: map[string]int64{x.Name: 1}}, true
	case *cast.Unary:
		if x.Op == "-" && !x.Postfix {
			a, ok := AffineOf(x.X)
			if !ok {
				return Affine{}, false
			}
			return a.scale(-1), true
		}
		if x.Op == "+" && !x.Postfix {
			return AffineOf(x.X)
		}
		return Affine{}, false
	case *cast.Binary:
		switch x.Op {
		case "+", "-":
			a, ok := AffineOf(x.X)
			if !ok {
				return Affine{}, false
			}
			b, ok := AffineOf(x.Y)
			if !ok {
				return Affine{}, false
			}
			if x.Op == "-" {
				b = b.scale(-1)
			}
			return a.add(b), true
		case "*":
			// constant * affine or affine * constant
			if c, ok := constInt(x.X); ok {
				a, ok2 := AffineOf(x.Y)
				if !ok2 {
					return Affine{}, false
				}
				return a.scale(c), true
			}
			if c, ok := constInt(x.Y); ok {
				a, ok2 := AffineOf(x.X)
				if !ok2 {
					return Affine{}, false
				}
				return a.scale(c), true
			}
			return Affine{}, false
		default:
			return Affine{}, false
		}
	}
	return Affine{}, false
}

func (a Affine) scale(c int64) Affine {
	out := Affine{Const: a.Const * c, Coeffs: map[string]int64{}}
	for k, v := range a.Coeffs {
		out.Coeffs[k] = v * c
	}
	return out
}

func (a Affine) add(b Affine) Affine {
	out := Affine{Const: a.Const + b.Const, Coeffs: map[string]int64{}}
	for k, v := range a.Coeffs {
		out.Coeffs[k] = v
	}
	for k, v := range b.Coeffs {
		out.Coeffs[k] += v
		if out.Coeffs[k] == 0 {
			delete(out.Coeffs, k)
		}
	}
	return out
}

// Coeff returns the coefficient of variable v (0 when absent).
func (a Affine) Coeff(v string) int64 { return a.Coeffs[v] }

// String renders the affine form for diagnostics.
func (a Affine) String() string {
	s := fmt.Sprintf("%d", a.Const)
	keys := make([]string, 0, len(a.Coeffs))
	for k := range a.Coeffs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		s += fmt.Sprintf(" + %d*%s", a.Coeffs[k], k)
	}
	return s
}

func gcd(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// DependenceResult classifies a pair test.
type DependenceResult int

// Pair-test outcomes: Independent proves no cross-iteration dependence;
// Dependent proves (or conservatively assumes) one; SameIteration means the
// accesses only ever coincide within an iteration (distance 0).
const (
	Independent DependenceResult = iota
	SameIteration
	Dependent
)

func (d DependenceResult) String() string {
	switch d {
	case Independent:
		return "independent"
	case SameIteration:
		return "same-iteration"
	case Dependent:
		return "dependent"
	}
	return "?"
}

// TestSubscriptPair applies the single-index-variable dependence test to two
// affine subscripts f and g of the same array, where at least one access is
// a write. iv is the loop induction variable.
//
//   - If both are independent of iv and equal ⇒ every iteration touches the
//     same cell ⇒ Dependent (unless both reads, which the caller excludes).
//   - If coefficients on iv match: distance = (g0-f0)/c; non-zero integral
//     distance ⇒ Dependent, zero ⇒ SameIteration, fractional ⇒ Independent.
//   - Otherwise fall back to the GCD test: gcd(cf, cg) ∤ (g0-f0) ⇒
//     Independent, else conservatively Dependent.
//
// Symbolic terms other than iv must match on both sides; otherwise the test
// is conservative (Dependent).
func TestSubscriptPair(f, g Affine, iv string) DependenceResult {
	// Compare symbolic parts excluding iv.
	for k, v := range f.Coeffs {
		if k == iv {
			continue
		}
		if g.Coeffs[k] != v {
			return Dependent // differing symbols: cannot reason, conservative
		}
	}
	for k, v := range g.Coeffs {
		if k == iv {
			continue
		}
		if f.Coeffs[k] != v {
			return Dependent
		}
	}
	cf, cg := f.Coeff(iv), g.Coeff(iv)
	d0 := g.Const - f.Const
	switch {
	case cf == 0 && cg == 0:
		if d0 == 0 {
			return Dependent // same fixed cell every iteration
		}
		return Independent
	case cf == cg:
		if d0 == 0 {
			return SameIteration
		}
		if d0%cf == 0 {
			return Dependent // constant non-zero distance
		}
		return Independent
	default:
		g1 := gcd(cf, cg)
		if g1 == 0 {
			return Dependent
		}
		if d0%g1 != 0 {
			return Independent
		}
		return Dependent
	}
}

// ---------------------------------------------------------------------------
// scalar classification and reductions

// ReductionOp describes a recognized reduction update.
type ReductionOp struct {
	Var string
	Op  string // "+", "*", "min", "max", ...
	// MultiStatement is true when the variable is updated by more than one
	// reduction statement in the body (e.g. `v += 2; v = v + step;`).
	MultiStatement bool
}

// FindReductions scans the loop body for scalar reduction updates:
// x += e, x -= e, x *= e, x = x op e, x = e op x (commutative op), x++.
// The expression e must not read x. Updates inside nested conditionals
// still count (OpenMP permits conditional reduction updates).
func FindReductions(body cast.Stmt, exclude map[string]bool) []ReductionOp {
	counts := map[string]int{}
	ops := map[string]string{}
	ok := map[string]bool{}

	var visitStmt func(s cast.Stmt)
	consider := func(v, op string, rhsReadsVar bool) {
		if exclude[v] {
			return
		}
		counts[v]++
		if rhsReadsVar {
			ok[v] = false
			return
		}
		if prev, seen := ops[v]; seen && prev != op {
			ok[v] = false
			return
		}
		ops[v] = op
		if _, seen := ok[v]; !seen {
			ok[v] = true
		}
	}
	visitExpr := func(e cast.Expr) {
		switch x := e.(type) {
		case *cast.Assign:
			lhs, isIdent := x.LHS.(*cast.Ident)
			if !isIdent {
				return
			}
			switch x.Op {
			case "+=", "*=", "-=", "|=", "&=", "^=":
				consider(lhs.Name, x.Op[:1], readsVar(x.RHS, lhs.Name))
			case "=":
				if b, ok2 := x.RHS.(*cast.Binary); ok2 {
					switch b.Op {
					case "+", "*", "|", "&", "^":
						if identNamed(b.X, lhs.Name) && !readsVar(b.Y, lhs.Name) {
							consider(lhs.Name, b.Op, false)
						} else if identNamed(b.Y, lhs.Name) && !readsVar(b.X, lhs.Name) {
							consider(lhs.Name, b.Op, false)
						}
					case "-":
						if identNamed(b.X, lhs.Name) && !readsVar(b.Y, lhs.Name) {
							consider(lhs.Name, "-", false)
						}
					}
				}
			}
		case *cast.Unary:
			if x.Op == "++" || x.Op == "--" {
				if id, ok2 := x.X.(*cast.Ident); ok2 {
					op := "+"
					if x.Op == "--" {
						op = "-"
					}
					consider(id.Name, op, false)
				}
			}
		}
	}
	visitStmt = func(s cast.Stmt) {
		switch x := s.(type) {
		case *cast.Compound:
			for _, it := range x.Items {
				visitStmt(it)
			}
		case *cast.ExprStmt:
			visitExpr(x.X)
		case *cast.If:
			visitStmt(x.Then)
			if x.Else != nil {
				visitStmt(x.Else)
			}
		case *cast.For:
			visitStmt(x.Body)
		case *cast.While:
			visitStmt(x.Body)
		case *cast.DoWhile:
			visitStmt(x.Body)
		case *cast.Switch:
			visitStmt(x.Body)
		}
	}
	visitStmt(body)

	var out []ReductionOp
	names := make([]string, 0, len(ops))
	for v := range ops {
		names = append(names, v)
	}
	sort.Strings(names)
	for _, v := range names {
		if !ok[v] {
			continue
		}
		out = append(out, ReductionOp{Var: v, Op: ops[v], MultiStatement: counts[v] > 1})
	}
	return out
}

// readsVar reports whether expression e reads variable name (other than as
// a call target).
func readsVar(e cast.Expr, name string) bool {
	found := false
	cast.Walk(e, func(n cast.Node) bool {
		if call, ok := n.(*cast.Call); ok {
			// skip the callee identifier but scan arguments
			for _, a := range call.Args {
				if readsVar(a, name) {
					found = true
				}
			}
			return false
		}
		if id, ok := n.(*cast.Ident); ok && id.Name == name {
			found = true
		}
		return !found
	})
	return found
}

// ScalarClass categorizes how a scalar behaves across iterations.
type ScalarClass int

// Scalar classes for parallelization decisions.
const (
	ScalarReadOnly ScalarClass = iota
	ScalarPrivate              // written before any read in each iteration
	ScalarReduction
	ScalarCarried // genuine loop-carried dependence
)

func (c ScalarClass) String() string {
	switch c {
	case ScalarReadOnly:
		return "read-only"
	case ScalarPrivate:
		return "private"
	case ScalarReduction:
		return "reduction"
	case ScalarCarried:
		return "carried"
	}
	return "?"
}

// ClassifyScalars analyzes every scalar in the body. declaredInside lists
// variables declared in the loop body (always private). The nestedWrites
// option controls whether writes inside nested loops/branches may establish
// privatization (true mimics a stronger analysis; false, the conservative
// autoPar-style behaviour, only honors top-level write-before-read).
func ClassifyScalars(body cast.Stmt, indVar string, nestedWrites bool) map[string]ScalarClass {
	accesses := CollectAccesses(body)
	reds := FindReductions(body, map[string]bool{indVar: true})
	redSet := map[string]bool{}
	for _, r := range reds {
		redSet[r.Var] = true
	}
	declared := cast.DeclaredNames(body)

	// Track, in source order, the first access kind per scalar at top level
	// and overall.
	type usage struct {
		firstIsWrite     bool
		firstSeen        bool
		firstUncondWrite bool // first access is an unconditional write
		read, written    bool
	}
	use := map[string]*usage{}
	order := []string{}
	for _, a := range accesses {
		if len(a.Subscripts) > 0 || a.ViaPointer || a.Base == indVar {
			continue
		}
		u := use[a.Base]
		if u == nil {
			u = &usage{}
			use[a.Base] = u
			order = append(order, a.Base)
		}
		if !u.firstSeen {
			u.firstSeen = true
			u.firstIsWrite = a.Write
			u.firstUncondWrite = a.Write && !a.Conditional
		}
		if a.Write {
			u.written = true
		} else {
			u.read = true
		}
	}

	out := map[string]ScalarClass{}
	for _, v := range order {
		u := use[v]
		switch {
		case declared[v]:
			out[v] = ScalarPrivate
		case !u.written:
			out[v] = ScalarReadOnly
		case redSet[v]:
			out[v] = ScalarReduction
		case u.firstIsWrite && (nestedWrites || u.firstUncondWrite):
			out[v] = ScalarPrivate
		default:
			out[v] = ScalarCarried
		}
	}
	return out
}
