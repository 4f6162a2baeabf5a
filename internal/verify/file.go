package verify

import (
	"sort"
	"strings"

	"graph2par/internal/cast"
	"graph2par/internal/cparse"
)

// LoopVerdict pairs one loop of a translation unit with its verdict: the
// unit of the graph2verify CLI output and of the golden-verdict corpus.
// Loops carrying a source pragma are verified against it; bare loops are
// verified in derive mode (could ANY parallel for legally land here).
type LoopVerdict struct {
	File    string  `json:"file,omitempty"`
	Line    int     `json:"line"`
	Func    string  `json:"func,omitempty"`
	Kind    string  `json:"kind"`
	Pragma  string  `json:"pragma,omitempty"`
	Verdict Verdict `json:"verdict"`
}

// VerifyFile verifies every for/while loop of a parsed translation unit
// (the same loop set the engine analyzes), sorted by source line.
func VerifyFile(file *cast.File) []LoopVerdict {
	var out []LoopVerdict
	for _, l := range file.Loops() {
		var prag string
		switch x := l.Loop.(type) {
		case *cast.For:
			prag = x.Pragma
		case *cast.While:
			prag = x.Pragma
		}
		out = append(out, LoopVerdict{
			Line:    l.Loop.Pos().Line,
			Func:    l.Fn.Name,
			Kind:    l.Loop.Kind(),
			Pragma:  strings.TrimSpace(prag),
			Verdict: Verify(Request{Loop: l.Loop, File: file, Fn: l.Fn, Pragma: prag}),
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Line < out[j].Line })
	return out
}

// VerifySource parses one C source and verifies its loops.
func VerifySource(src string) ([]LoopVerdict, error) {
	file, err := cparse.ParseFile(src)
	if err != nil {
		return nil, err
	}
	return VerifyFile(file), nil
}
