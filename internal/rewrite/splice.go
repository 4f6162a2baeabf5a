package rewrite

import (
	"fmt"
	"sort"
	"strings"

	"graph2par/internal/auggraph"
	"graph2par/internal/cast"
	"graph2par/internal/cparse"
)

// Apply splices the accepted plans into the source and proves the result.
// The edit is line-based against the original bytes — delete the loop's
// previously attached pragma lines, insert the derived directive above the
// loop anchor and an `omp atomic` line above each protected statement — so
// every byte the rewrite does not own survives exactly. The spliced file
// must then re-parse with the directive attached to the same loop and with
// every rewritten loop's augmented graph canonically identical to the
// original's; a plan failing any gate is demoted to suggestion-only in
// place and the splice is retried without it until the survivors all prove
// out. Apply reports whether the returned source differs from the input.
func Apply(src string, plans []*LoopPlan) (string, bool, error) {
	file, err := cparse.ParseFile(src)
	if err != nil {
		return "", false, fmt.Errorf("rewrite: source does not parse: %w", err)
	}
	origLoops := file.Loops()
	byOffset := map[int]int{}
	for i, l := range origLoops {
		byOffset[l.Loop.Pos().Offset] = i
	}
	funcs := file.DefinedFuncs()
	for _, p := range plans {
		if !p.active() {
			continue
		}
		if _, ok := byOffset[p.Offset]; !ok {
			p.demote("loop not found at offset in source")
		}
	}
	demoteNested(plans, origLoops, byOffset)

	lines := strings.SplitAfter(src, "\n")
	out := src
	for {
		demoted := false
		var actives []*LoopPlan
		for _, p := range plans {
			if p.active() {
				actives = append(actives, p)
			}
		}
		if len(actives) == 0 {
			out = src
			break
		}

		edits, bad := planEdits(lines, actives, origLoops, byOffset)
		if len(bad) > 0 {
			demoted = true
		}
		if demoted {
			continue
		}
		out = applyEdits(lines, edits)

		nfile, err := cparse.ParseFile(out)
		if err != nil {
			for _, p := range actives {
				p.demote("rewritten source fails to re-parse: " + err.Error())
			}
			continue
		}
		newLoops := nfile.Loops()
		if len(newLoops) != len(origLoops) {
			for _, p := range actives {
				p.demote(fmt.Sprintf("rewritten source re-parses to %d loops, expected %d",
					len(newLoops), len(origLoops)))
			}
			continue
		}
		for _, p := range actives {
			i := byOffset[p.Offset]
			nl := newLoops[i].Loop
			if attachedPragma(nl) != p.Pragma {
				p.demote("directive did not attach to the rewritten loop")
				demoted = true
				continue
			}
			if !graphIdentical(origLoops[i].Loop, nl, funcs) {
				p.demote("rewritten loop's augmented graph differs from the original")
				demoted = true
			}
		}
		if demoted {
			continue
		}
		for _, p := range actives {
			p.Validation.GraphIdentical = true
		}
		break
	}
	return out, out != src, nil
}

// active reports whether the plan still asks for a splice.
func (p *LoopPlan) active() bool {
	return p.Status == StatusRewritten || p.Status == StatusAtomic
}

// demote downgrades the plan to suggestion-only with the reason.
func (p *LoopPlan) demote(reason string) {
	p.Status = StatusSuggestion
	p.Reason = reason
	p.AtomicLines = nil
	p.AtomicCols = nil
	p.Validation.GraphIdentical = false
}

// demoteNested drops an active plan whose loop sits inside another active
// plan's loop: the enclosing parallel region owns the nest, and collapse
// already covers what the inner directive would have claimed.
func demoteNested(plans []*LoopPlan, loops []cast.FuncLoop, byOffset map[int]int) {
	byOff := map[int]*LoopPlan{}
	ordered := append([]*LoopPlan(nil), plans...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Offset < ordered[j].Offset })
	for _, p := range ordered {
		if p.active() {
			byOff[p.Offset] = p
		}
	}
	for _, p := range ordered {
		if !p.active() {
			continue
		}
		outer := loops[byOffset[p.Offset]].Loop
		line := p.Line
		cast.Walk(outer, func(n cast.Node) bool {
			if n == cast.Node(outer) {
				return true
			}
			switch n.(type) {
			case *cast.For, *cast.While:
				if inner, ok := byOff[n.(cast.Stmt).Pos().Offset]; ok && inner.active() {
					inner.demote(fmt.Sprintf("enclosing loop at line %d is rewritten", line))
				}
			}
			return true
		})
	}
}

// edit is one line-based operation against the original source.
type edit struct {
	line   int      // 1-based original line number
	drop   bool     // delete this line
	insert []string // full lines (with terminator) inserted before it
}

// planEdits computes the splice for the active plans, re-checking every
// textual assumption against the bytes. Plans whose assumptions fail are
// demoted and returned in bad.
func planEdits(lines []string, actives []*LoopPlan, loops []cast.FuncLoop, byOffset map[int]int) ([]edit, []*LoopPlan) {
	drops := map[int]bool{}
	inserts := map[int][]string{}
	var bad []*LoopPlan
	for _, p := range actives {
		loop := loops[byOffset[p.Offset]].Loop
		pos := loop.Pos()
		if pos.Line < 1 || pos.Line > len(lines) {
			p.demote("loop line out of range")
			bad = append(bad, p)
			continue
		}
		loopLine := lines[pos.Line-1]
		if strings.TrimSpace(loopLine[:pos.Col-1]) != "" {
			p.demote("loop does not start its source line")
			bad = append(bad, p)
			continue
		}
		indent := loopLine[:pos.Col-1]

		// Delete the previously attached pragma lines, scanning upward from
		// the loop; the parser only attaches lines sitting directly above.
		old := attachedPragma(loop)
		need := 0
		if old != "" {
			need = strings.Count(old, "\n") + 1
		}
		ok := true
		ln := pos.Line - 1
		for got := 0; got < need; ln-- {
			if ln < 1 {
				ok = false
				break
			}
			t := strings.TrimSpace(lines[ln-1])
			if t == "" {
				continue
			}
			if !strings.HasPrefix(t, "#pragma") {
				ok = false
				break
			}
			drops[ln] = true
			got++
		}
		if !ok {
			p.demote("could not locate the loop's attached pragma lines")
			bad = append(bad, p)
			continue
		}

		inserts[pos.Line] = append(inserts[pos.Line], indent+p.Pragma+"\n")

		for i, al := range p.AtomicLines {
			if al < 1 || al > len(lines) {
				ok = false
				break
			}
			col := p.AtomicCols[i]
			stLine := lines[al-1]
			if col < 1 || col-1 > len(stLine) || strings.TrimSpace(stLine[:col-1]) != "" {
				ok = false
				break
			}
			inserts[al] = append(inserts[al], stLine[:col-1]+"#pragma omp atomic\n")
		}
		if !ok {
			p.demote("protected statement does not start its source line")
			bad = append(bad, p)
			continue
		}
	}
	var edits []edit
	for ln := range drops {
		edits = append(edits, edit{line: ln, drop: true})
	}
	for ln, ins := range inserts {
		edits = append(edits, edit{line: ln, insert: ins})
	}
	sort.Slice(edits, func(i, j int) bool { return edits[i].line < edits[j].line })
	return edits, bad
}

// applyEdits materializes the line operations into the output source.
func applyEdits(lines []string, edits []edit) string {
	drops := map[int]bool{}
	inserts := map[int][]string{}
	for _, e := range edits {
		if e.drop {
			drops[e.line] = true
		}
		inserts[e.line] = append(inserts[e.line], e.insert...)
	}
	var b strings.Builder
	for i, line := range lines {
		ln := i + 1
		for _, ins := range inserts[ln] {
			b.WriteString(ins)
		}
		if drops[ln] {
			continue
		}
		b.WriteString(line)
	}
	return b.String()
}

// attachedPragma returns the loop's attached pragma text, if any.
func attachedPragma(loop cast.Stmt) string {
	switch x := loop.(type) {
	case *cast.For:
		return x.Pragma
	case *cast.While:
		return x.Pragma
	}
	return ""
}

// graphIdentical compares the augmented graphs of the original and the
// rewritten loop on pragma-stripped clones: attached directives are
// invisible to the builder already, and stripping PragmaStmt items hides
// the inserted `omp atomic` lines, so the graphs must match byte for byte.
func graphIdentical(orig, rewritten cast.Stmt, funcs map[string]*cast.FuncDecl) bool {
	opts := auggraph.Default()
	opts.Funcs = funcs
	a := auggraph.Build(stripClone(orig), opts).Canon()
	b := auggraph.Build(stripClone(rewritten), opts).Canon()
	return a == b
}

// stripClone clones the loop with PragmaStmt items removed and the
// attached directive cleared.
func stripClone(loop cast.Stmt) cast.Stmt {
	c := cloneStmt(loop, nil, true)
	switch x := c.(type) {
	case *cast.For:
		x.Pragma = ""
	case *cast.While:
		x.Pragma = ""
	}
	return c
}
