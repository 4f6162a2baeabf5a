package cinterp

import "graph2par/internal/cast"

// Capture is the final value of one captured variable at instrumented-loop
// exit: a scalar's value, or a dense copy of an array's elements.
type Capture struct {
	Scalar *Value
	Array  []Value
}

// snap is one captured name's record at the latest exit: a scalar's
// value, or an array snapshot that shares the live array's chunks.
type snap struct {
	val    Value
	arr    *array
	scalar bool
}

// captureNow records every CaptureNames binding visible at the
// instrumented loop's scope, replacing the previous exit's record.
func (in *Interp) captureNow(fr *frame) {
	if in.snaps == nil {
		in.snaps = make([]snap, len(in.CaptureNames))
	}
	for i := range in.CaptureNames {
		s := snap{}
		if b, ok := in.lookupRef(fr, in.res.capture[i]); ok {
			switch {
			case b.cell != nil:
				s = snap{val: b.cell.val, scalar: true}
			case b.arr != nil:
				s = snap{arr: b.arr.snapshot()}
			}
		}
		in.snaps[i] = s
	}
}

// densifyCaptures turns the last exit's record into Captured, once, when
// Run returns: a scalar's value, or a dense copy of an array.
func (in *Interp) densifyCaptures() {
	if in.snaps == nil {
		return
	}
	in.Captured = map[string]Capture{}
	for i, name := range in.CaptureNames {
		switch s := in.snaps[i]; {
		case s.scalar:
			in.Captured[name] = Capture{Scalar: &s.val}
		case s.arr != nil:
			in.Captured[name] = Capture{Array: s.arr.dense()}
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
func (in *Interp) execForReversed(fr *frame, f *cast.For, st *execState) error {
	if f.Cond == nil || f.Post == nil {
		return &ErrUnsupported{What: "reversed execution needs a loop condition and post expression"}
	}
	b, ok := in.lookupRef(fr, in.res.rev)
	if !ok || b.cell == nil {
		return &ErrUnsupported{What: "reversed execution needs a scalar induction variable"}
	}
	var ivs []Value
	for {
		if err := in.step(); err != nil {
			return err
		}
		c, err := in.eval(fr, f.Cond)
		if err != nil {
			return err
		}
		if !c.Truthy() {
			break
		}
		ivs = append(ivs, b.cell.val)
		if _, err := in.eval(fr, f.Post); err != nil {
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
		err := in.execStmt(fr, f.Body, st)
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
