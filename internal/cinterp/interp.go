package cinterp

import (
	"errors"
	"fmt"

	"graph2par/internal/cast"
)

// ErrStepBudget is returned when execution exceeds the configured step
// budget (the analogue of a profiling run being too expensive).
var ErrStepBudget = errors.New("cinterp: step budget exhausted")

// ErrUnsupported wraps constructs the interpreter cannot execute (pointers,
// unknown functions, recursion deeper than maxCallDepth, ...), making the
// program unprocessable for the dynamic tool.
type ErrUnsupported struct{ What string }

func (e *ErrUnsupported) Error() string { return "cinterp: unsupported: " + e.What }

// Addr identifies a memory cell for tracing: an object ID plus a flattened
// element index. Scalars use Elem == ScalarElem; array elements use their
// flattened non-negative index; a whole-array reference (from Watched) uses
// Elem == WholeArrayElem.
type Addr struct {
	Obj  int
	Elem int64
}

// Sentinel Elem values for Addr.
const (
	ScalarElem     int64 = -1
	WholeArrayElem int64 = -2
)

// IsArrayElem reports whether the address names an array element.
func (a Addr) IsArrayElem() bool { return a.Elem >= 0 }

// TraceFunc receives every access made while the instrumented loop is
// executing. iter is the 0-based iteration index of that loop; write
// distinguishes stores from loads.
type TraceFunc func(addr Addr, write bool, iter int)

// cell is a scalar storage location.
type cell struct {
	id  int
	val Value
}

// binding is what a name resolves to.
type binding struct {
	cell *cell
	arr  *array
	sobj *structObj
	sarr *structArray
}

// scope is a lexical environment frame.
type scope struct {
	vars   map[string]binding
	parent *scope
}

func newScope(parent *scope) *scope {
	return &scope{vars: map[string]binding{}, parent: parent}
}

func (s *scope) lookup(name string) (binding, bool) {
	for cur := s; cur != nil; cur = cur.parent {
		if b, ok := cur.vars[name]; ok {
			return b, true
		}
	}
	return binding{}, false
}

// Interp executes a parsed C file.
type Interp struct {
	file    *cast.File
	funcs   map[string]*cast.FuncDecl
	globals *scope

	// MaxSteps bounds execution; defaults to 2,000,000 evaluation steps.
	MaxSteps int
	steps    int
	// depth counts the live C call frames, main included.
	depth int

	// Instrumentation: accesses inside TraceLoop (at any call depth) are
	// reported to Trace with the loop's current iteration.
	TraceLoop *cast.For
	Trace     TraceFunc
	inLoop    bool
	iter      int

	// WatchNames asks the interpreter to resolve these variable names to
	// trace addresses when the instrumented loop is first entered; results
	// land in Watched. Names that do not resolve to a scalar or array are
	// simply absent.
	WatchNames []string
	Watched    map[string]Addr

	// CaptureNames asks for a snapshot of these variables' values when the
	// instrumented loop exits (on any path); the last exit's values land in
	// Captured, complete once Run returns. Names that do not resolve at the
	// loop's scope are simply absent.
	CaptureNames []string
	Captured     map[string]Capture
	// snaps holds the last capture's array snapshots until Run returns.
	snaps map[string]*array

	// ReverseOrder executes the instrumented loop's iterations back to
	// front: the induction-variable sequence is simulated first (condition
	// and post expression only), then the bodies run last iteration first.
	// This is the rewrite validator's parallel-order probe — any
	// cross-iteration dependence the serial order hid changes the observable
	// state. ReverseIndVar names the induction variable; it must resolve to
	// a scalar at the loop's scope.
	ReverseOrder  bool
	ReverseIndVar string

	nextID int
	// cellsLeft is the run's array cell budget (maxRunCells at start).
	cellsLeft int64
	// declared lists the arrays of the blocks being executed, innermost
	// last; release hands a block's cells back when it ends. It lives here
	// rather than in scope so that scopes stay on the Go stack.
	declared []*array
}

// New prepares an interpreter for the file.
func New(file *cast.File) *Interp {
	return &Interp{
		file:     file,
		funcs:    file.DefinedFuncs(),
		MaxSteps: 2_000_000,
	}
}

// control-flow signals
type signal int

const (
	sigNone signal = iota
	sigBreak
	sigContinue
	sigReturn
)

type execState struct {
	sig    signal
	retVal Value
}

// Run executes main() and returns its exit value.
func (in *Interp) Run() (Value, error) {
	defer in.densifyCaptures()
	in.cellsLeft = maxRunCells
	in.globals = newScope(nil)
	for _, g := range in.file.Globals {
		if err := in.declare(in.globals, g); err != nil {
			return Value{}, err
		}
	}
	mainFn := in.funcs["main"]
	if mainFn == nil {
		return Value{}, &ErrUnsupported{What: "no main function"}
	}
	return in.callFunc(mainFn, nil)
}

func (in *Interp) step() error {
	in.steps++
	if in.steps > in.MaxSteps {
		return ErrStepBudget
	}
	return nil
}

func (in *Interp) newCell(v Value) *cell {
	in.nextID++
	return &cell{id: in.nextID, val: v}
}

func (in *Interp) newArray(dims []int64, isFloat bool) (*array, error) {
	total := int64(1)
	for _, d := range dims {
		if d <= 0 {
			return nil, fmt.Errorf("non-positive array dimension %d", d)
		}
		total *= d
		if total > maxArrayCells {
			return nil, &ErrUnsupported{What: "array too large for interpretation"}
		}
	}
	in.nextID++
	return &array{
		id:      in.nextID,
		dims:    dims,
		size:    total,
		isFloat: isFloat,
		chunks:  make([]*chunk, (total+chunkMask)>>chunkShift),
		left:    &in.cellsLeft,
	}, nil
}

func (in *Interp) declare(sc *scope, d *cast.VarDecl) error {
	if def, ok := in.structDef(d.Type); ok {
		return in.declareStruct(sc, d, def)
	}
	if len(d.ArrayDims) > 0 {
		dims := make([]int64, len(d.ArrayDims))
		for i, de := range d.ArrayDims {
			if de == nil {
				return &ErrUnsupported{What: "unsized array dimension"}
			}
			v, err := in.eval(sc, de)
			if err != nil {
				return err
			}
			dims[i] = v.AsInt()
		}
		arr, err := in.newArray(dims, typeIsFloat(d.Type))
		if err != nil {
			return err
		}
		if d.Init != nil {
			lst, ok := d.Init.(*cast.InitList)
			if !ok {
				return &ErrUnsupported{What: "non-list array initializer"}
			}
			if err := in.fillInit(sc, arr, lst); err != nil {
				return err
			}
		}
		sc.vars[d.Name] = binding{arr: arr}
		in.declared = append(in.declared, arr)
		return nil
	}
	if d.Pointer > 0 {
		return &ErrUnsupported{What: "pointer declaration"}
	}
	var v Value
	if typeIsFloat(d.Type) {
		v = FloatVal(0)
	} else {
		v = IntVal(0)
	}
	if d.Init != nil {
		iv, err := in.eval(sc, d.Init)
		if err != nil {
			return err
		}
		v = coerce(iv, typeIsFloat(d.Type))
	}
	c := in.newCell(v)
	sc.vars[d.Name] = binding{cell: c}
	in.traceAccess(Addr{Obj: c.id, Elem: ScalarElem}, true)
	return nil
}

func (in *Interp) fillInit(sc *scope, arr *array, lst *cast.InitList) error {
	flat := flattenInit(lst)
	if int64(len(flat)) > arr.size {
		return fmt.Errorf("too many initializers")
	}
	for i, e := range flat {
		v, err := in.eval(sc, e)
		if err != nil {
			return err
		}
		if err := arr.set(int64(i), v); err != nil {
			return err
		}
	}
	return nil
}

func flattenInit(lst *cast.InitList) []cast.Expr {
	var out []cast.Expr
	for _, e := range lst.Elems {
		if inner, ok := e.(*cast.InitList); ok {
			out = append(out, flattenInit(inner)...)
		} else {
			out = append(out, e)
		}
	}
	return out
}

func typeIsFloat(t string) bool {
	switch t {
	case "float", "double", "long double":
		return true
	}
	return false
}

func coerce(v Value, wantFloat bool) Value {
	if wantFloat && !v.IsFloat {
		return FloatVal(float64(v.I))
	}
	if !wantFloat && v.IsFloat {
		return IntVal(int64(v.F))
	}
	return v
}

// release ends a block that began when declared held mark arrays: the
// arrays declared since go back to the run budget, except those a
// snapshot shares. An array never snapshotted (gen 0) was charged for
// every chunk it holds.
func (in *Interp) release(mark int) {
	for _, a := range in.declared[mark:] {
		if a.gen == 0 {
			in.cellsLeft += a.cells()
		}
	}
	clear(in.declared[mark:])
	in.declared = in.declared[:mark]
}

func (in *Interp) traceAccess(addr Addr, write bool) {
	if in.inLoop && in.Trace != nil {
		in.Trace(addr, write, in.iter)
	}
}

// maxCallDepth bounds the C call stack. Each interpreted call costs about
// 2 KB of goroutine stack (callFunc → execStmt → eval → evalCall), so
// unbounded recursion would exhaust Go's stack limit, which ends the whole
// process, long before the step budget runs out.
const maxCallDepth = 1000

// callFunc invokes fn with evaluated arguments. Arrays are passed by
// reference (C decay), scalars by value.
func (in *Interp) callFunc(fn *cast.FuncDecl, args []binding) (Value, error) {
	if err := in.step(); err != nil {
		return Value{}, err
	}
	sc := newScope(in.globals)
	for i, p := range fn.Params {
		if i >= len(args) {
			return Value{}, fmt.Errorf("call to %s: missing argument %d", fn.Name, i)
		}
		sc.vars[p.Name] = args[i]
	}
	if in.depth == maxCallDepth {
		return Value{}, &ErrUnsupported{What: fmt.Sprintf("call depth over %d frames", maxCallDepth)}
	}
	st := &execState{}
	in.depth++
	err := in.execStmt(sc, fn.Body, st)
	in.depth--
	if err != nil {
		return Value{}, err
	}
	return st.retVal, nil
}

func (in *Interp) execStmt(sc *scope, s cast.Stmt, st *execState) error {
	if err := in.step(); err != nil {
		return err
	}
	switch x := s.(type) {
	case nil:
		return nil
	case *cast.Compound:
		inner := newScope(sc)
		mark := len(in.declared)
		var err error
		for _, it := range x.Items {
			if err = in.execStmt(inner, it, st); err != nil || st.sig != sigNone {
				break
			}
		}
		in.release(mark)
		return err
	case *cast.ExprStmt:
		_, err := in.eval(sc, x.X)
		return err
	case *cast.DeclStmt:
		for _, d := range x.Decls {
			if err := in.declare(sc, d); err != nil {
				return err
			}
		}
		return nil
	case *cast.If:
		c, err := in.eval(sc, x.Cond)
		if err != nil {
			return err
		}
		if c.Truthy() {
			return in.execStmt(sc, x.Then, st)
		}
		if x.Else != nil {
			return in.execStmt(sc, x.Else, st)
		}
		return nil
	case *cast.For:
		return in.execFor(sc, x, st)
	case *cast.While:
		for {
			if err := in.step(); err != nil {
				return err
			}
			c, err := in.eval(sc, x.Cond)
			if err != nil {
				return err
			}
			if !c.Truthy() {
				return nil
			}
			if err := in.execStmt(sc, x.Body, st); err != nil {
				return err
			}
			if st.sig == sigBreak {
				st.sig = sigNone
				return nil
			}
			if st.sig == sigContinue {
				st.sig = sigNone
			}
			if st.sig == sigReturn {
				return nil
			}
		}
	case *cast.DoWhile:
		for {
			if err := in.step(); err != nil {
				return err
			}
			if err := in.execStmt(sc, x.Body, st); err != nil {
				return err
			}
			if st.sig == sigBreak {
				st.sig = sigNone
				return nil
			}
			if st.sig == sigContinue {
				st.sig = sigNone
			}
			if st.sig == sigReturn {
				return nil
			}
			c, err := in.eval(sc, x.Cond)
			if err != nil {
				return err
			}
			if !c.Truthy() {
				return nil
			}
		}
	case *cast.Return:
		if x.X != nil {
			v, err := in.eval(sc, x.X)
			if err != nil {
				return err
			}
			st.retVal = v
		}
		st.sig = sigReturn
		return nil
	case *cast.Break:
		st.sig = sigBreak
		return nil
	case *cast.Continue:
		st.sig = sigContinue
		return nil
	case *cast.Empty, *cast.PragmaStmt, *cast.Label:
		return nil
	case *cast.Switch:
		return in.execSwitch(sc, x, st)
	case *cast.Goto:
		return &ErrUnsupported{What: "goto"}
	default:
		return &ErrUnsupported{What: fmt.Sprintf("statement %T", s)}
	}
}

// execFor runs a for statement in a scope of its own, whose arrays go
// back to the run budget after the loop and its exit capture. The release
// is not deferred: a second defer in runFor would keep the compiler from
// open-coding the capture's.
func (in *Interp) execFor(sc *scope, f *cast.For, st *execState) error {
	mark := len(in.declared)
	err := in.runFor(newScope(sc), f, st)
	in.release(mark)
	return err
}

func (in *Interp) runFor(inner *scope, f *cast.For, st *execState) error {
	if f.Init != nil {
		if err := in.execStmt(inner, f.Init, st); err != nil {
			return err
		}
	}
	isTraced := f == in.TraceLoop
	if isTraced && in.WatchNames != nil && in.Watched == nil {
		in.Watched = map[string]Addr{}
		for _, name := range in.WatchNames {
			if b, ok := inner.lookup(name); ok {
				if b.cell != nil {
					in.Watched[name] = Addr{Obj: b.cell.id, Elem: ScalarElem}
				} else if b.arr != nil {
					in.Watched[name] = Addr{Obj: b.arr.id, Elem: WholeArrayElem}
				}
			}
		}
	}
	if isTraced && len(in.CaptureNames) > 0 {
		// Snapshot on every exit path — normal termination, break, return,
		// even an error — so the validator always sees the final state the
		// loop left behind.
		defer in.captureNow(inner)
	}
	if isTraced && in.ReverseOrder {
		return in.execForReversed(inner, f, st)
	}
	iterCount := 0
	for {
		if err := in.step(); err != nil {
			return err
		}
		if f.Cond != nil {
			c, err := in.eval(inner, f.Cond)
			if err != nil {
				return err
			}
			if !c.Truthy() {
				break
			}
		}
		if isTraced {
			in.inLoop = true
			in.iter = iterCount
		}
		err := in.execStmt(inner, f.Body, st)
		if isTraced {
			in.inLoop = false
		}
		if err != nil {
			return err
		}
		if st.sig == sigBreak {
			st.sig = sigNone
			return nil
		}
		if st.sig == sigContinue {
			st.sig = sigNone
		}
		if st.sig == sigReturn {
			return nil
		}
		if f.Post != nil {
			if isTraced {
				// the post expression belongs to the closing iteration
				in.inLoop = true
			}
			_, err := in.eval(inner, f.Post)
			if isTraced {
				in.inLoop = false
			}
			if err != nil {
				return err
			}
		}
		iterCount++
	}
	return nil
}

func (in *Interp) execSwitch(sc *scope, sw *cast.Switch, st *execState) error {
	cond, err := in.eval(sc, sw.Cond)
	if err != nil {
		return err
	}
	body, ok := sw.Body.(*cast.Compound)
	if !ok {
		return &ErrUnsupported{What: "non-compound switch body"}
	}
	inner := newScope(sc)
	defer in.release(len(in.declared))
	matched := false
	defaultIdx := -1
	for idx, it := range body.Items {
		if c, isCase := it.(*cast.Case); isCase {
			if matched {
				continue
			}
			if c.Val == nil {
				defaultIdx = idx
				continue
			}
			v, err := in.eval(inner, c.Val)
			if err != nil {
				return err
			}
			if v.AsInt() == cond.AsInt() {
				matched = true
			}
			continue
		}
		if matched {
			if err := in.execStmt(inner, it, st); err != nil {
				return err
			}
			if st.sig == sigBreak {
				st.sig = sigNone
				return nil
			}
			if st.sig != sigNone {
				return nil
			}
		}
	}
	if !matched && defaultIdx >= 0 {
		for _, it := range body.Items[defaultIdx+1:] {
			if _, isCase := it.(*cast.Case); isCase {
				continue
			}
			if err := in.execStmt(inner, it, st); err != nil {
				return err
			}
			if st.sig == sigBreak {
				st.sig = sigNone
				return nil
			}
			if st.sig != sigNone {
				return nil
			}
		}
	}
	return nil
}
