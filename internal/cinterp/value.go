// Package cinterp is a tree-walking interpreter for the C subset, with a
// loop-access profile. It is the substrate for the DiscoPoP-style dynamic
// analyzer and the rewrite oracle: each runs a program's main() under a
// step budget, and Run folds every scalar/array access made inside an
// instrumented loop, tagged with the loop iteration that made it, into a
// per-address Profile (profile.go). Programs that cannot be executed —
// missing main, unknown functions, unsupported constructs, runaway loops —
// fail with an error, which is exactly the coverage gap dynamic tools have
// in the paper (only 3.7% of dataset loops are processable by DiscoPoP).
//
// No access hashes a name or an address. Run first resolves every
// identifier of the file to a slot in a call frame or in the globals
// frame (resolve.go), and the profile lives on the cells and arrays it
// profiles.
//
// Arrays are stored in fixed-size chunks that are created on first write,
// so a declared but untouched array costs almost nothing. A run may hold
// at most maxRunCells array cells, and its loop profile as many entries;
// past either it fails with ErrUnsupported, like a call stack deeper than
// maxCallDepth. The cells of a block's arrays, and their profile entries,
// are given back when the block ends. Captures at the traced
// loop's exits share chunks with the live arrays (copy on write), and Run
// turns the last one into dense slices when it returns.
package cinterp

import (
	"fmt"
	"math"
)

// Value is a C scalar value: either an integer or a floating-point number.
type Value struct {
	F       float64
	I       int64
	IsFloat bool
}

// IntVal makes an integer value.
func IntVal(i int64) Value { return Value{I: i} }

// FloatVal makes a floating-point value.
func FloatVal(f float64) Value { return Value{F: f, IsFloat: true} }

// AsFloat returns the value as float64.
func (v Value) AsFloat() float64 {
	if v.IsFloat {
		return v.F
	}
	return float64(v.I)
}

// AsInt returns the value as int64 (truncating).
func (v Value) AsInt() int64 {
	if v.IsFloat {
		return int64(v.F)
	}
	return v.I
}

// Truthy reports C truthiness.
func (v Value) Truthy() bool {
	if v.IsFloat {
		return v.F != 0
	}
	return v.I != 0
}

func (v Value) String() string {
	if v.IsFloat {
		return fmt.Sprintf("%g", v.F)
	}
	return fmt.Sprintf("%d", v.I)
}

// binop applies a C binary operator with usual arithmetic promotion.
func binop(op string, a, b Value) (Value, error) {
	if op == "&&" {
		return boolVal(a.Truthy() && b.Truthy()), nil
	}
	if op == "||" {
		return boolVal(a.Truthy() || b.Truthy()), nil
	}
	if a.IsFloat || b.IsFloat {
		x, y := a.AsFloat(), b.AsFloat()
		switch op {
		case "+":
			return FloatVal(x + y), nil
		case "-":
			return FloatVal(x - y), nil
		case "*":
			return FloatVal(x * y), nil
		case "/":
			if y == 0 {
				return Value{}, fmt.Errorf("float division by zero")
			}
			return FloatVal(x / y), nil
		case "%":
			if y == 0 {
				return Value{}, fmt.Errorf("fmod by zero")
			}
			return FloatVal(math.Mod(x, y)), nil
		case "<":
			return boolVal(x < y), nil
		case ">":
			return boolVal(x > y), nil
		case "<=":
			return boolVal(x <= y), nil
		case ">=":
			return boolVal(x >= y), nil
		case "==":
			return boolVal(x == y), nil
		case "!=":
			return boolVal(x != y), nil
		}
		return Value{}, fmt.Errorf("operator %q not defined on floats", op)
	}
	x, y := a.I, b.I
	switch op {
	case "+":
		return IntVal(x + y), nil
	case "-":
		return IntVal(x - y), nil
	case "*":
		return IntVal(x * y), nil
	case "/":
		if y == 0 {
			return Value{}, fmt.Errorf("integer division by zero")
		}
		return IntVal(x / y), nil
	case "%":
		if y == 0 {
			return Value{}, fmt.Errorf("integer modulo by zero")
		}
		return IntVal(x % y), nil
	case "<":
		return boolVal(x < y), nil
	case ">":
		return boolVal(x > y), nil
	case "<=":
		return boolVal(x <= y), nil
	case ">=":
		return boolVal(x >= y), nil
	case "==":
		return boolVal(x == y), nil
	case "!=":
		return boolVal(x != y), nil
	case "&":
		return IntVal(x & y), nil
	case "|":
		return IntVal(x | y), nil
	case "^":
		return IntVal(x ^ y), nil
	case "<<":
		if y < 0 || y > 63 {
			return Value{}, fmt.Errorf("shift amount %d out of range", y)
		}
		return IntVal(x << uint(y)), nil
	case ">>":
		if y < 0 || y > 63 {
			return Value{}, fmt.Errorf("shift amount %d out of range", y)
		}
		return IntVal(x >> uint(y)), nil
	}
	return Value{}, fmt.Errorf("unknown operator %q", op)
}

func boolVal(b bool) Value {
	if b {
		return IntVal(1)
	}
	return IntVal(0)
}

// mathCall evaluates a whitelisted C math function.
func mathCall(name string, args []Value) (Value, bool, error) {
	f1 := func(fn func(float64) float64) (Value, bool, error) {
		if len(args) != 1 {
			return Value{}, true, fmt.Errorf("%s expects 1 argument", name)
		}
		return FloatVal(fn(args[0].AsFloat())), true, nil
	}
	switch name {
	case "fabs", "fabsf":
		return f1(math.Abs)
	case "sqrt", "sqrtf":
		return f1(math.Sqrt)
	case "sin", "sinf":
		return f1(math.Sin)
	case "cos", "cosf":
		return f1(math.Cos)
	case "tan":
		return f1(math.Tan)
	case "exp", "expf":
		return f1(math.Exp)
	case "log", "logf":
		return f1(math.Log)
	case "log2":
		return f1(math.Log2)
	case "log10":
		return f1(math.Log10)
	case "floor":
		return f1(math.Floor)
	case "ceil":
		return f1(math.Ceil)
	case "round":
		return f1(math.Round)
	case "trunc":
		return f1(math.Trunc)
	case "cbrt":
		return f1(math.Cbrt)
	case "asin":
		return f1(math.Asin)
	case "acos":
		return f1(math.Acos)
	case "atan":
		return f1(math.Atan)
	case "sinh":
		return f1(math.Sinh)
	case "cosh":
		return f1(math.Cosh)
	case "tanh":
		return f1(math.Tanh)
	case "expm1":
		return f1(math.Expm1)
	case "log1p":
		return f1(math.Log1p)
	case "abs", "labs", "llabs":
		if len(args) != 1 {
			return Value{}, true, fmt.Errorf("%s expects 1 argument", name)
		}
		v := args[0].AsInt()
		if v < 0 {
			v = -v
		}
		return IntVal(v), true, nil
	case "pow", "powf":
		if len(args) != 2 {
			return Value{}, true, fmt.Errorf("pow expects 2 arguments")
		}
		return FloatVal(math.Pow(args[0].AsFloat(), args[1].AsFloat())), true, nil
	case "fmod":
		if len(args) != 2 {
			return Value{}, true, fmt.Errorf("fmod expects 2 arguments")
		}
		return FloatVal(math.Mod(args[0].AsFloat(), args[1].AsFloat())), true, nil
	case "fmin", "hypot", "atan2", "fmax":
		if len(args) != 2 {
			return Value{}, true, fmt.Errorf("%s expects 2 arguments", name)
		}
		x, y := args[0].AsFloat(), args[1].AsFloat()
		switch name {
		case "fmin":
			return FloatVal(math.Min(x, y)), true, nil
		case "fmax":
			return FloatVal(math.Max(x, y)), true, nil
		case "hypot":
			return FloatVal(math.Hypot(x, y)), true, nil
		case "atan2":
			return FloatVal(math.Atan2(x, y)), true, nil
		}
	case "printf", "fprintf", "puts", "putchar":
		// I/O is a no-op returning 0; output content is irrelevant to
		// dependence analysis.
		return IntVal(0), true, nil
	}
	return Value{}, false, nil
}
