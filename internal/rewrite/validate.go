package rewrite

import (
	"fmt"
	"math"
	"strings"

	"graph2par/internal/cast"
	"graph2par/internal/cinterp"
	"graph2par/internal/cparse"
)

// dynOutcome is the dynamic validator's ruling: checked (both executions
// agree and the race oracle stayed silent), skipped (the loop or its
// function cannot be driven by the interpreter — the static verdict
// stands alone), or failed (the probe found a real divergence and the
// rewrite must not ship).
type dynOutcome struct {
	status string // "checked", "skipped", "failed"
	detail string
}

func checked() dynOutcome                   { return dynOutcome{status: "checked"} }
func skipped(f string, a ...any) dynOutcome { return dynOutcome{"skipped", fmt.Sprintf(f, a...)} }
func failed(f string, a ...any) dynOutcome  { return dynOutcome{"failed", fmt.Sprintf(f, a...)} }

// validateSteps bounds each probe execution; the synthesized harness runs
// size-8 inputs, so a healthy loop finishes in a few thousand steps.
const validateSteps = 500_000

// validateDynamic executes the loop twice — source order, then reversed
// iteration order — and compares every shared observable. The serial
// run's loop profile, the one DiscoPoP reads, feeds a race oracle: an
// address written and touched across distinct iterations is a
// cross-iteration dependence unless it is the induction variable, a
// privatized scalar, a reduction cell updated once per iteration, or an
// atomic-protected base. The reversed run then confirms
// order-independence of the surviving state, with a relative tolerance on
// reduction and atomic values (parallel execution legitimately
// reassociates floating-point sums).
func validateDynamic(file *cast.File, fn *cast.FuncDecl, loop *cast.For, cp clausePlan) dynOutcome {
	if file == nil || fn == nil {
		return skipped("loop is not inside a defined function")
	}
	harness, err := synthesizeHarness(file, fn)
	if err != nil {
		return skipped("%v", err)
	}
	hfile, perr := cparse.ParseFile(harness)
	if perr != nil {
		return skipped("harness does not parse: %v", perr)
	}
	idx := loopIndex(file, loop)
	hloops := hfile.Loops()
	if idx < 0 || idx >= len(hloops) {
		return skipped("loop not found in harness")
	}
	hloop, ok := hloops[idx].Loop.(*cast.For)
	if !ok {
		return skipped("loop not found in harness")
	}

	// Shared variable inventories, all in sorted slices so every message
	// and comparison below is deterministic.
	privSet := toSet(cp.privates)
	firstSet := toSet(cp.firstprivates)
	atomicSet := toSet(cp.atomicBases)
	redSet := map[string]bool{}
	for _, r := range cp.reds {
		redSet[r.Var] = true
	}
	role := func(name string) cinterp.Role {
		switch {
		case privSet[name], firstSet[name], atomicSet[name]:
			return cinterp.Exempt
		case redSet[name]:
			return cinterp.Reduction
		}
		return cinterp.Named
	}
	watch := []cinterp.Watch{{Name: cp.iv, Role: cinterp.Exempt}}
	for _, n := range cp.scalarNames {
		if n != cp.iv && !cp.declared[n] {
			watch = append(watch, cinterp.Watch{Name: n, Role: role(n)})
		}
	}
	for _, n := range cp.arrayBases {
		watch = append(watch, cinterp.Watch{Name: n, Role: role(n)})
	}
	var compare []string
	for _, w := range watch {
		if privSet[w.Name] || firstSet[w.Name] {
			continue // loop-local by clause; final value unspecified
		}
		compare = append(compare, w.Name)
	}

	// Serial probe, profiled for the race oracle.
	ser := cinterp.New(hfile)
	ser.MaxSteps = validateSteps
	ser.TraceLoop = hloop
	ser.Watch = watch
	ser.CaptureNames = compare
	if _, err := ser.Run(); err != nil {
		return skipped("serial probe: %v", err)
	}
	if ser.Profile.MaxIter < 1 {
		return skipped("loop executed fewer than 2 iterations")
	}
	if out := raceOracle(ser.Profile); out.status != "checked" {
		return out
	}

	// Reversed probe: same harness AST, fresh state, opposite order.
	rev := cinterp.New(hfile)
	rev.MaxSteps = validateSteps
	rev.TraceLoop = hloop
	rev.ReverseOrder = true
	rev.ReverseIndVar = cp.iv
	rev.CaptureNames = compare
	if _, err := rev.Run(); err != nil {
		return skipped("reversed probe: %v", err)
	}

	for _, name := range compare {
		a, aok := ser.Captured[name]
		b, bok := rev.Captured[name]
		if !aok || !bok {
			continue // unresolvable at loop scope in both runs alike
		}
		tol := redSet[name] || atomicSet[name]
		if !capturesAgree(a, b, tol) {
			return failed("serial and reversed execution disagree on %q", name)
		}
	}
	return checked()
}

// raceOracle reads the serial probe's profile: a cell written and touched
// across iterations is a dependence unless its object is exempt (the
// induction variable, a privatized or atomic-protected name) or it is a
// reduction cell, whose once-per-iteration update discipline is checked
// instead.
func raceOracle(p cinterp.Profile) dynOutcome {
	for _, c := range p.Cells {
		if c.Reduction {
			// A reduction cell is touched every iteration by design; what
			// the oracle pins is the once-per-iteration update discipline.
			if c.RepeatedWrite {
				return failed("reduction variable %q is updated more than once per iteration", c.Name)
			}
			continue
		}
		// Every other listed cell is Shared.
		if c.Name == "" {
			return failed("cross-iteration dependence on an unnamed location")
		}
		return failed("cross-iteration dependence on %q observed at runtime", c.Name)
	}
	return checked()
}

// capturesAgree compares one captured variable across the two probes:
// exact value equality, or a small relative tolerance where parallel
// execution may legitimately reassociate floating point.
func capturesAgree(a, b cinterp.Capture, tol bool) bool {
	switch {
	case a.Scalar != nil && b.Scalar != nil:
		return valuesAgree(*a.Scalar, *b.Scalar, tol)
	case a.Array != nil && b.Array != nil:
		if len(a.Array) != len(b.Array) {
			return false
		}
		for i := range a.Array {
			if !valuesAgree(a.Array[i], b.Array[i], tol) {
				return false
			}
		}
		return true
	}
	return false
}

func valuesAgree(a, b cinterp.Value, tol bool) bool {
	if !tol {
		return a.IsFloat == b.IsFloat && a.I == b.I && a.F == b.F
	}
	x, y := a.AsFloat(), b.AsFloat()
	limit := 1e-9 * math.Max(1, math.Max(math.Abs(x), math.Abs(y)))
	return math.Abs(x-y) <= limit
}

// intTypes are the scalar parameter types the harness can feed.
var intTypes = map[string]bool{
	"int": true, "long": true, "short": true, "char": true,
	"unsigned": true, "unsigned int": true, "unsigned long": true,
	"long long": true,
}

// synthesizeHarness prints the file and, when it defines no main,
// appends a generated one: deterministic size-8 inputs for every
// parameter of the target function, then a single call. The first integer
// parameter receives 8 (the extent every generated array has), later
// integers 3, floats 1.5; int arrays cycle over 0..6 so they stay valid
// as subscripts into the size-8 arrays, float arrays ramp linearly.
func synthesizeHarness(file *cast.File, fn *cast.FuncDecl) (string, error) {
	src := cast.Print(file)
	for _, f := range file.Funcs {
		if f.Name == "main" && f.Body != nil {
			return src, nil
		}
	}
	var b strings.Builder
	b.WriteString("int main() {\n")
	var args []string
	var inits []string
	ints, arrays := 0, 0
	for _, p := range fn.Params {
		if p.Name == "" {
			return "", fmt.Errorf("unnamed parameter in %s", fn.Name)
		}
		isFloat := p.Type == "float" || p.Type == "double"
		if !isFloat && !intTypes[p.Type] {
			return "", fmt.Errorf("unsupported parameter type %q", p.Type)
		}
		rank := p.ArrayDims
		if rank == 0 {
			rank = p.Pointer
		} else if p.Pointer > 0 {
			return "", fmt.Errorf("unsupported parameter shape %s", p.Name)
		}
		switch rank {
		case 0:
			if isFloat {
				args = append(args, "1.5")
			} else {
				ints++
				if ints == 1 {
					args = append(args, "8")
				} else {
					args = append(args, "3")
				}
			}
		case 1:
			arrays++
			name := fmt.Sprintf("g2r_a%d", arrays)
			fmt.Fprintf(&b, "    %s %s[8];\n", p.Type, name)
			expr := fmt.Sprintf("%s[g2r_i] = g2r_i * 0.5 + 1.0;", name)
			if !isFloat {
				expr = fmt.Sprintf("%s[g2r_i] = (g2r_i * 5 + 3) %% 7;", name)
			}
			inits = append(inits,
				fmt.Sprintf("    for (g2r_i = 0; g2r_i < 8; g2r_i++) { %s }\n", expr))
			args = append(args, name)
		case 2:
			arrays++
			name := fmt.Sprintf("g2r_a%d", arrays)
			fmt.Fprintf(&b, "    %s %s[8][8];\n", p.Type, name)
			expr := fmt.Sprintf("%s[g2r_i][g2r_j] = (g2r_i * 8 + g2r_j) * 0.5 + 1.0;", name)
			if !isFloat {
				expr = fmt.Sprintf("%s[g2r_i][g2r_j] = (g2r_i * 8 + g2r_j) %% 7;", name)
			}
			inits = append(inits,
				"    for (g2r_i = 0; g2r_i < 8; g2r_i++) { for (g2r_j = 0; g2r_j < 8; g2r_j++) { "+
					expr+" } }\n")
			args = append(args, name)
		default:
			return "", fmt.Errorf("unsupported parameter rank for %s", p.Name)
		}
	}
	if arrays > 0 {
		b.WriteString("    int g2r_i;\n    int g2r_j;\n")
		for _, init := range inits {
			b.WriteString(init)
		}
	}
	fmt.Fprintf(&b, "    %s(%s);\n    return 0;\n}\n", fn.Name, strings.Join(args, ", "))
	return src + "\n" + b.String(), nil
}

// loopIndex finds the loop's position in File.Loops order. The index
// matches across a print or splice round trip: neither adds nor removes
// loops before the target.
func loopIndex(file *cast.File, loop *cast.For) int {
	for i, l := range file.Loops() {
		if l.Loop == cast.Stmt(loop) {
			return i
		}
	}
	return -1
}

func toSet(names []string) map[string]bool {
	out := map[string]bool{}
	for _, n := range names {
		out[n] = true
	}
	return out
}
