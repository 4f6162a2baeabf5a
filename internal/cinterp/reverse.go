package cinterp

import "graph2par/internal/cast"

// Capture is the final value of one captured variable at instrumented-loop
// exit: a scalar's value, or a dense copy of an array's elements.
type Capture struct {
	Scalar *Value
	Array  []Value
}

// captureNow records every CaptureNames binding visible at the
// instrumented loop's scope, replacing the previous exit's record: a
// scalar's value goes straight into Captured, an array is snapshotted
// (chunk pointers only) until Run densifies it.
func (in *Interp) captureNow(sc *scope) {
	in.Captured = map[string]Capture{}
	in.snaps = map[string]*array{}
	for _, name := range in.CaptureNames {
		b, ok := sc.lookup(name)
		if !ok {
			continue
		}
		switch {
		case b.cell != nil:
			v := b.cell.val
			in.Captured[name] = Capture{Scalar: &v}
		case b.arr != nil:
			in.snaps[name] = b.arr.snapshot()
		}
	}
}

// densifyCaptures turns the last exit's array snapshots into dense
// Captured entries, once, when Run returns.
func (in *Interp) densifyCaptures() {
	for _, name := range in.CaptureNames {
		if s, ok := in.snaps[name]; ok {
			in.Captured[name] = Capture{Array: s.dense()}
		}
	}
	in.snaps = nil
}

// execForReversed runs the instrumented loop back to front. Phase one
// simulates the induction-variable sequence by evaluating only the
// condition and post expression — for the canonical loops the rewriter
// feeds it, those touch nothing but the induction variable. Phase two
// replays the recorded values last to first, executing the body once per
// value. Early exits (break, return) cannot be replayed out of order and
// surface as ErrUnsupported; continue only ends the current iteration.
func (in *Interp) execForReversed(inner *scope, f *cast.For, st *execState) error {
	if f.Cond == nil || f.Post == nil {
		return &ErrUnsupported{What: "reversed execution needs a loop condition and post expression"}
	}
	b, ok := inner.lookup(in.ReverseIndVar)
	if !ok || b.cell == nil {
		return &ErrUnsupported{What: "reversed execution needs a scalar induction variable"}
	}
	var ivs []Value
	for {
		if err := in.step(); err != nil {
			return err
		}
		c, err := in.eval(inner, f.Cond)
		if err != nil {
			return err
		}
		if !c.Truthy() {
			break
		}
		ivs = append(ivs, b.cell.val)
		if _, err := in.eval(inner, f.Post); err != nil {
			return err
		}
	}
	exit := b.cell.val
	for k := len(ivs) - 1; k >= 0; k-- {
		if err := in.step(); err != nil {
			return err
		}
		b.cell.val = ivs[k]
		in.inLoop = true
		in.iter = k
		err := in.execStmt(inner, f.Body, st)
		in.inLoop = false
		if err != nil {
			return err
		}
		if st.sig != sigNone {
			sig := st.sig
			st.sig = sigNone
			if sig == sigContinue {
				continue
			}
			return &ErrUnsupported{What: "early exit during reversed execution"}
		}
	}
	b.cell.val = exit
	return nil
}
