// Package analysis is gnnvet's engine: a pluggable set of project-invariant
// static checks over type-checked packages, loaded with nothing beyond the
// standard library's go/parser, go/ast and go/types.
//
// The invariants are the ones this repo's headline results depend on and
// previously enforced only through expensive runtime tests: bit-identical
// parallel kernels and crash resume (no ambient randomness or wall-clock
// reads in kernel packages, no map-iteration order leaking into ordered
// results), durable checkpoints (fsync before rename, no deferred Close on
// an os.Exit path), and a lawful observability surface (every span Ended,
// every mutex unlocked, every metric name passing the obs naming law).
// Each check emits "file:line:col: [check] message" diagnostics; a
// //gnnvet:allow <check> comment on the offending line (or the line above
// it) suppresses a finding and is reported in the suppressed tally instead.
package analysis

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// A Check verifies one project invariant over a type-checked package.
type Check struct {
	// Name is the stable identifier used in diagnostics, the -checks flag
	// and //gnnvet:allow directives.
	Name string
	// Doc is a one-line description for gnnvet's check listing.
	Doc string
	// Run inspects pass.Pkg and reports findings through pass.Reportf.
	Run func(pass *Pass)
}

// All returns every registered check in stable order.
func All() []*Check {
	return []*Check{
		determinismCheck,
		deferCloseExitCheck,
		atomicRenameCheck,
		spanEndCheck,
		tracePropagationCheck,
		lockBalanceCheck,
		metricNamesCheck,
		useAfterReleaseCheck,
		goroutineLeakCheck,
		ctxPropagationCheck,
		lockOrderCheck,
		wireBoundedAllocCheck,
		unreachableCheck,
	}
}

// Select resolves a -checks spec against the registry: empty means all
// checks, "a,b" enables exactly those, and a spec of "-a,-b" runs all but
// the named ones (the two forms cannot be mixed).
func Select(spec string) ([]*Check, error) {
	if strings.TrimSpace(spec) == "" {
		return All(), nil
	}
	byName := map[string]*Check{}
	for _, c := range All() {
		byName[c.Name] = c
	}
	var include, exclude []string
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		if name, ok := strings.CutPrefix(tok, "-"); ok {
			exclude = append(exclude, name)
		} else {
			include = append(include, tok)
		}
	}
	if len(include) > 0 && len(exclude) > 0 {
		return nil, fmt.Errorf("-checks cannot mix enabled (%s) and disabled (-%s) names", include[0], exclude[0])
	}
	for _, name := range append(append([]string(nil), include...), exclude...) {
		if byName[name] == nil {
			return nil, fmt.Errorf("unknown check %q (have %s)", name, strings.Join(checkNames(), ", "))
		}
	}
	if len(include) > 0 {
		var out []*Check
		for _, c := range All() { // registry order, not spec order
			for _, name := range include {
				if c.Name == name {
					out = append(out, c)
					break
				}
			}
		}
		return out, nil
	}
	var out []*Check
	for _, c := range All() {
		skipped := false
		for _, name := range exclude {
			if c.Name == name {
				skipped = true
				break
			}
		}
		if !skipped {
			out = append(out, c)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-checks %q disables every check", spec)
	}
	return out, nil
}

func checkNames() []string {
	var names []string
	for _, c := range All() {
		names = append(names, c.Name)
	}
	return names
}

// Diagnostic is one finding. EndLine/EndCol delimit the flagged expression
// when the check reported a range (0 when it reported a point).
type Diagnostic struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	EndLine int    `json:"end_line,omitempty"`
	EndCol  int    `json:"end_col,omitempty"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

// String renders the canonical file:line:col: [check] message form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Check, d.Message)
}

// Result is the outcome of running checks over packages.
type Result struct {
	// Diagnostics are the active findings, sorted by position.
	Diagnostics []Diagnostic `json:"diagnostics"`
	// Suppressed are findings silenced by //gnnvet:allow directives, kept so
	// the waiver count stays visible.
	Suppressed []Diagnostic `json:"suppressed"`
}

// Pass is one (check, package) execution.
type Pass struct {
	Pkg *Package
	// Prog is the whole-load interprocedural view (call graph + fixpoint
	// summaries), shared by every pass of a Run.
	Prog  *Program
	check *Check
	out   *Result
}

// Reportf records a finding at pos, honoring //gnnvet:allow suppressions.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.ReportRangef(pos, token.NoPos, format, args...)
}

// ReportRangef records a finding spanning [pos, end), honoring
// //gnnvet:allow suppressions. end may be token.NoPos for point findings.
func (p *Pass) ReportRangef(pos, end token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	d := Diagnostic{
		File: position.Filename, Line: position.Line, Col: position.Column,
		Check: p.check.Name, Message: fmt.Sprintf(format, args...),
	}
	if end.IsValid() {
		endPos := p.Pkg.Fset.Position(end)
		d.EndLine, d.EndCol = endPos.Line, endPos.Column
	}
	if p.Pkg.allowedAt(position, p.check.Name) {
		p.out.Suppressed = append(p.out.Suppressed, d)
		return
	}
	p.out.Diagnostics = append(p.out.Diagnostics, d)
}

// RunWithCache executes the checks over the packages, returning
// position-sorted findings. cachePath names a summary-cache file (""
// disables caching; see Program.Summarize).
func RunWithCache(pkgs []*Package, checks []*Check, cachePath string) *Result {
	prog := BuildProgram(pkgs)
	prog.Summarize(cachePath)
	out := &Result{}
	for _, pkg := range pkgs {
		for _, c := range checks {
			c.Run(&Pass{Pkg: pkg, Prog: prog, check: c, out: out})
		}
	}
	sortDiagnostics(out.Diagnostics)
	sortDiagnostics(out.Suppressed)
	return out
}

func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
}
