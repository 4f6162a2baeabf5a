// Package verify is the static pragma-safety verifier: a flow-sensitive
// analysis over the cast AST that re-checks every OpenMP suggestion the
// engine produces and returns a structured verdict — Safe, Unsafe (with a
// reason and position), or Unknown (the analysis cannot prove either way).
//
// The verifier is the hard gate between model and user: a predicted
// `parallel for` only ships when every check passes. Checks are small
// analyzers behind a shared pass driver (the internal/analysis
// multichecker idiom): structural legality, loop-carried dependence
// re-verification, clause soundness, call purity and alias hazards. See
// DESIGN.md, "Static pragma verification".
package verify

import (
	"graph2par/internal/cast"
)

// Level is the verdict lattice: Safe < Unknown < Unsafe. Combining
// findings takes the worst level, so one Unsafe finding condemns the loop
// no matter how many checks pass.
//
// Level is the single source of truth for the verdict's string and JSON
// encoding: String, MarshalText and ParseLevel are what the engine report,
// the /stats section, the experiments tables and the graph2verify -json
// output all funnel through, so the encodings cannot drift apart.
type Level int

// The three verdict levels, ordered by severity.
const (
	Safe Level = iota
	Unknown
	Unsafe
)

// String returns the canonical lower-case spelling.
//
//graph2lint:noalloc
func (l Level) String() string {
	switch l {
	case Safe:
		return "safe"
	case Unknown:
		return "unknown"
	case Unsafe:
		return "unsafe"
	}
	return "invalid"
}

// MarshalText encodes the level as its canonical spelling, so JSON
// carries "safe"/"unknown"/"unsafe" rather than bare integers.
func (l Level) MarshalText() ([]byte, error) {
	return []byte(l.String()), nil
}

// UnmarshalText decodes the canonical spelling (golden-file round trips).
func (l *Level) UnmarshalText(b []byte) error {
	v, ok := ParseLevel(string(b))
	if !ok {
		return &parseLevelError{text: string(b)}
	}
	*l = v
	return nil
}

// ParseLevel inverts String.
func ParseLevel(s string) (Level, bool) {
	switch s {
	case "safe":
		return Safe, true
	case "unknown":
		return Unknown, true
	case "unsafe":
		return Unsafe, true
	}
	return Safe, false
}

type parseLevelError struct{ text string }

func (e *parseLevelError) Error() string {
	return "verify: invalid level " + e.text + " (want safe, unknown or unsafe)"
}

// worse returns the more severe of two levels.
//
//graph2lint:noalloc
func worse(a, b Level) Level {
	if b > a {
		return b
	}
	return a
}

// Finding is one check's diagnostic: which analyzer fired, how bad it is,
// why, and where (1-based line/column; zero when no position applies).
type Finding struct {
	Check  string `json:"check"`
	Level  Level  `json:"level"`
	Reason string `json:"reason"`
	Line   int    `json:"line,omitempty"`
	Col    int    `json:"col,omitempty"`
}

// Verdict is the combined result for one loop: the worst finding's level,
// reason and position, plus every individual finding for diagnostics. A
// Safe verdict has no findings and an empty reason.
type Verdict struct {
	Level    Level     `json:"level"`
	Reason   string    `json:"reason,omitempty"`
	Line     int       `json:"line,omitempty"`
	Col      int       `json:"col,omitempty"`
	Findings []Finding `json:"findings,omitempty"`
}

// Request is one verification task: a loop, its optional enclosing
// translation unit (call purity and alias checks need it), and the pragma
// text under verification. An empty Pragma selects derive mode: the
// verifier decides whether ANY `parallel for` could legally land on the
// loop, and the clause-soundness check is vacuous.
type Request struct {
	Loop   cast.Stmt
	File   *cast.File
	Pragma string

	// Fn, when non-nil, names the enclosing function and skips the
	// File.EnclosingFunc lookup. VerifyFile already knows it; the rewriter
	// verifies statement-level clones that are not reachable from File,
	// so the identity walk that normally finds the surrounding function
	// cannot see them.
	Fn *cast.FuncDecl
}

// Verify runs the full check suite over one request. The result is a pure
// function of the request: byte-identical across runs and worker counts.
func Verify(req Request) Verdict {
	p := newPass(req)
	for _, c := range Checks() {
		c.Run(p)
	}
	return p.verdict()
}
