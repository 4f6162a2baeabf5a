// Package pragma parses OpenMP `#pragma omp ...` directives into the label
// taxonomy used by OMP_Serial: whether a loop is marked parallel (the
// presence of `parallel for`, `for`, `simd`, or `target` worksharing), and
// which of the four pragma categories of the paper (private, reduction,
// simd, target) apply.
package pragma

import (
	"sort"
	"strings"
)

// Category is one of the paper's four pragma classes.
type Category string

// The four categories of Table 1 / Table 5.
const (
	Private   Category = "private"
	Reduction Category = "reduction"
	SIMD      Category = "simd"
	Target    Category = "target"
)

// Info is the parsed content of one or more stacked OpenMP directives
// attached to a loop.
type Info struct {
	// Raw is the original pragma text (possibly multiple lines).
	Raw string
	// IsOMP reports whether this is an OpenMP pragma at all.
	IsOMP bool
	// ParallelFor reports the presence of a loop worksharing construct:
	// `parallel for`, bare `for`, `simd`, `target teams distribute ...` etc.
	ParallelFor bool
	// Categories lists which of the paper's four classes the directive
	// carries, in deterministic order.
	Categories []Category
	// ReductionOps maps reduction operator -> variables, e.g. "+" -> [sum].
	ReductionOps map[string][]string
	// PrivateVars lists variables in private(...) clauses.
	PrivateVars []string
	// Clauses holds every clause keyword seen (schedule, collapse, ...).
	Clauses []string
}

// Has reports whether the info carries the given category.
func (in *Info) Has(c Category) bool {
	for _, x := range in.Categories {
		if x == c {
			return true
		}
	}
	return false
}

// Parse parses one or more newline-separated pragma lines.
func Parse(text string) *Info {
	info := &Info{Raw: text, ReductionOps: map[string][]string{}}
	for _, line := range strings.Split(text, "\n") {
		parseLine(line, info)
	}
	// Deterministic category order: private, reduction, simd, target.
	var cats []Category
	seen := map[Category]bool{}
	add := func(c Category, on bool) {
		if on && !seen[c] {
			seen[c] = true
			cats = append(cats, c)
		}
	}
	add(Private, len(info.PrivateVars) > 0)
	add(Reduction, len(info.ReductionOps) > 0)
	add(SIMD, hasClause(info.Clauses, "simd"))
	add(Target, hasClause(info.Clauses, "target"))
	info.Categories = cats
	sort.Strings(info.PrivateVars)
	return info
}

func hasClause(clauses []string, want string) bool {
	for _, c := range clauses {
		if c == want {
			return true
		}
	}
	return false
}

func parseLine(line string, info *Info) {
	s := strings.TrimSpace(line)
	s = strings.TrimPrefix(s, "#")
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "pragma") {
		return
	}
	s = strings.TrimSpace(strings.TrimPrefix(s, "pragma"))
	if !strings.HasPrefix(s, "omp") {
		return
	}
	info.IsOMP = true
	s = strings.TrimSpace(strings.TrimPrefix(s, "omp"))

	toks := tokenizeDirective(s)
	for i := 0; i < len(toks); i++ {
		t := toks[i]
		switch t {
		case "parallel", "for", "teams", "distribute", "loop":
			info.Clauses = append(info.Clauses, t)
		case "simd", "target":
			info.Clauses = append(info.Clauses, t)
		case "private", "firstprivate", "lastprivate":
			vars, skip := parseParenList(toks[i+1:])
			i += skip
			if t == "private" || t == "firstprivate" || t == "lastprivate" {
				info.PrivateVars = append(info.PrivateVars, vars...)
			}
			info.Clauses = append(info.Clauses, t)
		case "reduction":
			args, skip := parseParenList(toks[i+1:])
			i += skip
			// form: op : v1 v2 ...
			if len(args) >= 2 && isReductionOp(args[0]) {
				op := args[0]
				info.ReductionOps[op] = append(info.ReductionOps[op], args[1:]...)
			}
			info.Clauses = append(info.Clauses, t)
		case "schedule", "collapse", "num_threads", "shared", "default",
			"map", "device", "if", "aligned", "safelen", "linear", "nowait",
			"ordered":
			_, skip := parseParenList(toks[i+1:])
			i += skip
			info.Clauses = append(info.Clauses, t)
		}
	}

	hasFor := hasClause(info.Clauses, "for") || hasClause(info.Clauses, "loop") ||
		hasClause(info.Clauses, "distribute")
	hasSIMD := hasClause(info.Clauses, "simd")
	info.ParallelFor = info.ParallelFor || hasFor || hasSIMD
}

func isReductionOp(s string) bool {
	switch s {
	case "+", "-", "*", "&", "|", "^", "&&", "||", "min", "max":
		return true
	}
	return false
}

// tokenizeDirective splits a pragma tail into words, parens, colons and
// operator symbols.
func tokenizeDirective(s string) []string {
	var toks []string
	i := 0
	for i < len(s) {
		c := s[i]
		switch {
		case c == ' ' || c == '\t' || c == ',':
			i++
		case c == '(' || c == ')' || c == ':':
			toks = append(toks, string(c))
			i++
		case isWordByte(c):
			j := i
			for j < len(s) && isWordByte(s[j]) {
				j++
			}
			toks = append(toks, s[i:j])
			i = j
		default:
			// operator chars for reduction(+:x); greedily take && and ||
			if i+1 < len(s) && (s[i:i+2] == "&&" || s[i:i+2] == "||") {
				toks = append(toks, s[i:i+2])
				i += 2
			} else {
				toks = append(toks, string(c))
				i++
			}
		}
	}
	return toks
}

func isWordByte(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

// parseParenList consumes a parenthesized argument list from toks (which
// must start at the token after the clause keyword) and returns the
// non-punctuation items plus the number of tokens consumed.
func parseParenList(toks []string) (items []string, consumed int) {
	if len(toks) == 0 || toks[0] != "(" {
		return nil, 0
	}
	depth := 0
	for i, t := range toks {
		switch t {
		case "(":
			depth++
		case ")":
			depth--
			if depth == 0 {
				return items, i + 1
			}
		case ":":
			// separator between reduction op and vars; keep order
		default:
			items = append(items, t)
		}
	}
	return items, len(toks)
}

func hasCat(cats []Category, want Category) bool {
	for _, c := range cats {
		if c == want {
			return true
		}
	}
	return false
}

// Construct renders the OpenMP directive name (no clauses) for a set of
// predicted categories. Directive words must all precede the first clause,
// so Target selects the combined `target teams distribute parallel for`
// construct and SIMD extends the construct name to `... parallel for simd`;
// clauses appended to the result stay valid OpenMP.
func Construct(cats []Category) string {
	var b strings.Builder
	b.WriteString("#pragma omp ")
	if hasCat(cats, Target) {
		b.WriteString("target teams distribute ")
	}
	b.WriteString("parallel for")
	if hasCat(cats, SIMD) {
		b.WriteString(" simd")
	}
	return b.String()
}
