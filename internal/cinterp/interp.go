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

// Addr identifies a memory cell for profiling: an object ID plus a
// flattened element index. Scalars use Elem == ScalarElem; array elements
// use their flattened non-negative index.
type Addr struct {
	Obj  int
	Elem int64
}

// ScalarElem is the Elem of a scalar's Addr.
const ScalarElem int64 = -1

// cell is a scalar storage location.
type cell struct {
	id   int
	val  Value
	prof *scalarProfile // set once the traced loop touches or watches the cell
}

// binding is what a frame slot holds: one of the four kinds of object,
// or none while the slot is unbound.
type binding struct {
	cell *cell
	arr  *array
	sobj *structObj
	sarr *structArray
}

//graph2lint:noalloc
func (b *binding) bound() bool {
	return b.cell != nil || b.arr != nil || b.sobj != nil || b.sarr != nil
}

// Interp executes a parsed C file.
type Interp struct {
	file *cast.File
	// res is the current run's name resolution (resolve.go).
	res resolution

	// MaxSteps bounds execution; defaults to 2,000,000 evaluation steps.
	MaxSteps int
	steps    int
	// depth counts the live C call frames, main included.
	depth int

	// TraceLoop is the instrumented loop. A forward run folds every access
	// made inside it, at any call depth, into Profile, tagged with the
	// loop's current iteration (0-based, restarting at each entry).
	TraceLoop *cast.For
	inLoop    bool
	iter      int
	prof      *profiler

	// Watch names variables of the instrumented loop's scope, each with
	// the Role the profile gives its object. They resolve again at every
	// entry of the loop, so a block-scoped name (for (int j = ...) inside
	// an outer loop) covers the fresh object each entry declares; names
	// that resolve to neither a scalar nor an array are ignored.
	Watch []Watch
	// Profile is the instrumented loop's access profile, set when Run
	// returns from a forward run (ReverseOrder off).
	Profile Profile

	// CaptureNames asks for a snapshot of these variables' values when the
	// instrumented loop exits (on any path); the last exit's values land in
	// Captured, complete once Run returns. Names that do not resolve at the
	// loop's scope are simply absent.
	CaptureNames []string
	Captured     map[string]Capture
	// snaps holds the last exit's capture, by CaptureNames index, until
	// Run returns.
	snaps []snap

	// ReverseOrder executes the instrumented loop's iterations back to
	// front: the induction-variable sequence is simulated first (condition
	// and post expression only), then the bodies run last iteration first.
	// This is the rewrite validator's parallel-order probe — any
	// cross-iteration dependence the serial order hid changes the observable
	// state. ReverseIndVar names the induction variable; it must resolve to
	// a scalar at the loop's scope. A reversed run records no Profile.
	ReverseOrder  bool
	ReverseIndVar string

	nextID int
	// cellsLeft is the run's array cell budget (maxRunCells at start).
	cellsLeft int64
	// declared lists the arrays of the blocks being executed, innermost
	// last; release hands a block's cells back when it ends.
	declared []*array
	// bound lists the frame slots the blocks being executed have bound,
	// innermost last; leave unbinds a block's when it ends.
	bound []*binding
}

// New prepares an interpreter for the file.
func New(file *cast.File) *Interp {
	return &Interp{file: file, MaxSteps: 2_000_000}
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
	if in.TraceLoop != nil && !in.ReverseOrder {
		in.prof = profilerPool.Get().(*profiler)
		defer in.finishProfile()
	}
	defer in.densifyCaptures()
	in.cellsLeft = maxRunCells
	if err := in.resolve(); err != nil {
		return Value{}, err
	}
	res := &in.res
	if in.bound == nil {
		in.bound = make([]*binding, 0, 16)
	}
	var top frame // global initializers see only globals
	for i, g := range in.file.Globals {
		if err := in.declare(&top, g, &res.globals[res.globalSlots[i]]); err != nil {
			return Value{}, err
		}
	}
	if res.main < 0 {
		return Value{}, &ErrUnsupported{What: "no main function"}
	}
	fi := &res.funcs[res.main]
	fr := newFrame(fi)
	return in.callFunc(fi, &fr, 0)
}

// lookup finds the binding an identifier use reads (see resolve.go).
//
//graph2lint:noalloc
func (in *Interp) lookup(fr *frame, id *cast.Ident) (binding, bool) {
	return in.lookupRef(fr, in.res.refs[id.ID])
}

// lookupRef finds the binding of a resolved name: the first bound slot
// of the blocks around the use that declare it, innermost first, else
// the global.
//
//graph2lint:noalloc
func (in *Interp) lookupRef(fr *frame, r ref) (binding, bool) {
	for s := r.slot; s >= 0; s = fr.outer[s] {
		if b := &fr.slots[s]; b.bound() {
			return *b, true
		}
	}
	if r.global >= 0 {
		if b := &in.res.globals[r.global]; b.bound() {
			return *b, true
		}
	}
	return binding{}, false
}

func newFrame(fi *funcInfo) frame {
	return frame{slots: make([]binding, len(fi.outer)), outer: fi.outer}
}

// mark is where a block's declarations begin on the run's stacks.
type mark struct{ arrays, slots int }

func (in *Interp) enter() mark { return mark{len(in.declared), len(in.bound)} }

// leave ends the block that began at m: its slots unbind and its arrays
// go back to the run budget.
func (in *Interp) leave(m mark) {
	for _, b := range in.bound[m.slots:] {
		*b = binding{}
	}
	clear(in.bound[m.slots:])
	in.bound = in.bound[:m.slots]
	in.release(m.arrays)
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

// declare runs a declaration in fr and binds its object to slot.
func (in *Interp) declare(fr *frame, d *cast.VarDecl, slot *binding) error {
	if def, ok := in.structDef(d.Type); ok {
		return in.declareStruct(fr, d, def, slot)
	}
	if len(d.ArrayDims) > 0 {
		dims := make([]int64, len(d.ArrayDims))
		for i, de := range d.ArrayDims {
			if de == nil {
				return &ErrUnsupported{What: "unsized array dimension"}
			}
			v, err := in.eval(fr, de)
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
			if err := in.fillInit(fr, arr, lst); err != nil {
				return err
			}
		}
		*slot = binding{arr: arr}
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
		iv, err := in.eval(fr, d.Init)
		if err != nil {
			return err
		}
		v = coerce(iv, typeIsFloat(d.Type))
	}
	c := in.newCell(v)
	*slot = binding{cell: c}
	return in.traceAccess(lvalue{cell: c}, true)
}

func (in *Interp) fillInit(fr *frame, arr *array, lst *cast.InitList) error {
	flat := flattenInit(lst)
	if int64(len(flat)) > arr.size {
		return fmt.Errorf("too many initializers")
	}
	for i, e := range flat {
		v, err := in.eval(fr, e)
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
// snapshot shares, and their loop profiles retire. An array never
// snapshotted (gen 0) was charged for every chunk it holds.
func (in *Interp) release(mark int) {
	for _, a := range in.declared[mark:] {
		if a.gen == 0 {
			in.cellsLeft += a.cells()
		}
		if a.prof != nil {
			in.prof.retire(a.prof)
		}
	}
	clear(in.declared[mark:])
	in.declared = in.declared[:mark]
}

// traceAccess profiles an access made inside the instrumented loop. It
// fails only when the profile would pass maxProfileChunks.
func (in *Interp) traceAccess(lv lvalue, write bool) error {
	if in.inLoop && in.prof != nil {
		return in.prof.access(lv, write, in.iter)
	}
	return nil
}

// finishProfile hands the run's profile to the caller and the profiler
// back to its pool, unless the run grew it past maxPooledChunks.
func (in *Interp) finishProfile() {
	in.Profile = in.prof.summary()
	if in.prof.chunksTaken <= maxPooledChunks {
		in.prof.reset()
		profilerPool.Put(in.prof)
	}
	in.prof = nil
}

// maxCallDepth bounds the C call stack. Each interpreted call costs about
// 2 KB of goroutine stack (callFunc → execStmt → eval → evalCall), so
// unbounded recursion would exhaust Go's stack limit, which ends the whole
// process, long before the step budget runs out.
const maxCallDepth = 1000

// callFunc runs fi's body in fr, whose parameter slots hold the call's
// first nargs arguments. The result takes the function's return type.
func (in *Interp) callFunc(fi *funcInfo, fr *frame, nargs int) (Value, error) {
	if err := in.step(); err != nil {
		return Value{}, err
	}
	fn := fi.decl
	if nargs < len(fn.Params) {
		return Value{}, fmt.Errorf("call to %s: missing argument %d", fn.Name, nargs)
	}
	if in.depth == maxCallDepth {
		return Value{}, &ErrUnsupported{What: fmt.Sprintf("call depth over %d frames", maxCallDepth)}
	}
	st := &execState{}
	in.depth++
	err := in.execStmt(fr, fn.Body, st)
	in.depth--
	if err != nil {
		return Value{}, err
	}
	if fn.RetType == "void" {
		return st.retVal, nil
	}
	return coerce(st.retVal, typeIsFloat(fn.RetType)), nil
}

func (in *Interp) execStmt(fr *frame, s cast.Stmt, st *execState) error {
	if err := in.step(); err != nil {
		return err
	}
	switch x := s.(type) {
	case nil:
		return nil
	case *cast.Compound:
		m := in.enter()
		var err error
		for _, it := range x.Items {
			if err = in.execStmt(fr, it, st); err != nil || st.sig != sigNone {
				break
			}
		}
		in.leave(m)
		return err
	case *cast.ExprStmt:
		_, err := in.eval(fr, x.X)
		return err
	case *cast.DeclStmt:
		for _, d := range x.Decls {
			slot := &fr.slots[in.res.decls[d]]
			if err := in.declare(fr, d, slot); err != nil {
				return err
			}
			in.bound = append(in.bound, slot)
		}
		return nil
	case *cast.If:
		c, err := in.eval(fr, x.Cond)
		if err != nil {
			return err
		}
		if c.Truthy() {
			return in.execStmt(fr, x.Then, st)
		}
		if x.Else != nil {
			return in.execStmt(fr, x.Else, st)
		}
		return nil
	case *cast.For:
		return in.execFor(fr, x, st)
	case *cast.While:
		for {
			if err := in.step(); err != nil {
				return err
			}
			c, err := in.eval(fr, x.Cond)
			if err != nil {
				return err
			}
			if !c.Truthy() {
				return nil
			}
			if err := in.execStmt(fr, x.Body, st); err != nil {
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
			if err := in.execStmt(fr, x.Body, st); err != nil {
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
			c, err := in.eval(fr, x.Cond)
			if err != nil {
				return err
			}
			if !c.Truthy() {
				return nil
			}
		}
	case *cast.Return:
		if x.X != nil {
			v, err := in.eval(fr, x.X)
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
		return in.execSwitch(fr, x, st)
	case *cast.Goto:
		return &ErrUnsupported{What: "goto"}
	default:
		return &ErrUnsupported{What: fmt.Sprintf("statement %T", s)}
	}
}

// execFor runs a for statement as a block of its own, which ends after
// the loop and its exit capture. The leave is not deferred: a second
// defer in runFor would keep the compiler from open-coding the capture's.
func (in *Interp) execFor(fr *frame, f *cast.For, st *execState) error {
	m := in.enter()
	err := in.runFor(fr, f, st)
	in.leave(m)
	return err
}

func (in *Interp) runFor(fr *frame, f *cast.For, st *execState) error {
	if f.Init != nil {
		if err := in.execStmt(fr, f.Init, st); err != nil {
			return err
		}
	}
	isTraced := f == in.TraceLoop
	if isTraced && in.prof != nil {
		in.markWatched(fr)
	}
	if isTraced && len(in.CaptureNames) > 0 {
		// Snapshot on every exit path — normal termination, break, return,
		// even an error — so the validator always sees the final state the
		// loop left behind.
		defer in.captureNow(fr)
	}
	if isTraced && in.ReverseOrder {
		return in.execForReversed(fr, f, st)
	}
	iterCount := 0
	for {
		if err := in.step(); err != nil {
			return err
		}
		if f.Cond != nil {
			c, err := in.eval(fr, f.Cond)
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
		err := in.execStmt(fr, f.Body, st)
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
			_, err := in.eval(fr, f.Post)
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

func (in *Interp) execSwitch(fr *frame, sw *cast.Switch, st *execState) error {
	cond, err := in.eval(fr, sw.Cond)
	if err != nil {
		return err
	}
	body, ok := sw.Body.(*cast.Compound)
	if !ok {
		return &ErrUnsupported{What: "non-compound switch body"}
	}
	defer in.leave(in.enter())
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
			v, err := in.eval(fr, c.Val)
			if err != nil {
				return err
			}
			if v.AsInt() == cond.AsInt() {
				matched = true
			}
			continue
		}
		if matched {
			if err := in.execStmt(fr, it, st); err != nil {
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
			if err := in.execStmt(fr, it, st); err != nil {
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
