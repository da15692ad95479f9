package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// The loader stays inside the standard library on purpose: package metadata
// and compiled export data come from one `go list -export -deps -json`
// invocation, target packages are re-parsed from source with go/parser (so
// checks see position-accurate ASTs and comments), and go/types resolves
// their imports through the export data. This is the same division of labor
// golang.org/x/tools/go/packages performs, minus the dependency.

// Package is one type-checked target package ready for checks.
type Package struct {
	// Path is the package's import path.
	Path string
	// Name is the package name (the checks' kernel-package scoping keys on
	// it, so fixtures can stand in for real kernel packages).
	Name string
	// Module is the path of the module the package belongs to.
	Module string
	// Fset covers Files.
	Fset *token.FileSet
	// Files are the parsed non-test Go files, with comments.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info holds the type-checker's fact tables for Files.
	Info *types.Info

	// allow maps "file:line" to the check names a //gnnvet:allow directive
	// sanctions there (the directive's own line and the line below it).
	allow map[string][]string
}

// listedPackage is the subset of `go list -json` output the loader reads.
type listedPackage struct {
	ImportPath string
	Name       string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

// Load builds every package matched by patterns (relative to dir), returning
// them sorted by import path. Dependencies — including the standard library —
// are satisfied from compiled export data, so only the target packages pay
// for parsing and type checking.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-export", "-deps",
		"-json=ImportPath,Name,Dir,Export,GoFiles,Standard,DepOnly,Module,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	exports := map[string]string{}
	var targets []*listedPackage
	dec := json.NewDecoder(&stdout)
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decode go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("load %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly {
			q := p
			targets = append(targets, &q)
		}
	}

	fset := token.NewFileSet()
	imp := &exportImporter{
		source: map[string]*types.Package{},
		gc: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			file, ok := exports[path]
			if !ok {
				return nil, fmt.Errorf("no export data for %q", path)
			}
			return os.Open(file)
		}),
	}

	// go list -deps emits dependencies before their importers, so checking
	// targets in listing order lets each one import earlier targets as
	// *source-checked* packages. That identity-unifies objects across the
	// load — a *types.Func seen at a cross-package call site is the same
	// object the callee's declaration defined — which is what lets the
	// interprocedural engine follow calls between target packages.
	var pkgs []*Package
	for _, t := range targets {
		pkg, err := checkPackage(fset, imp, t)
		if err != nil {
			return nil, err
		}
		imp.source[t.ImportPath] = pkg.Types
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// checkPackage parses and type-checks one target package from source.
func checkPackage(fset *token.FileSet, imp types.Importer, t *listedPackage) (*Package, error) {
	var files []*ast.File
	for _, name := range t.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(t.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %v", name, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: imp}
	typed, err := conf.Check(t.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", t.ImportPath, err)
	}
	pkg := &Package{
		Path: t.ImportPath, Name: typed.Name(),
		Fset: fset, Files: files, Types: typed, Info: info,
	}
	if t.Module != nil {
		pkg.Module = t.Module.Path
	}
	pkg.buildAllowMap()
	return pkg, nil
}

// exportImporter satisfies imports from already-source-checked target
// packages when it can (preserving object identity across the load), from
// compiled export data otherwise, special-casing the synthetic "unsafe"
// package the gc importer does not model.
type exportImporter struct {
	source map[string]*types.Package
	gc     types.Importer
}

func (e *exportImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := e.source[path]; ok {
		return pkg, nil
	}
	return e.gc.Import(path)
}

// allowDirective is the suppression comment prefix the analyzer honors.
const allowDirective = "//gnnvet:allow"

// testName matches a waiver reason that starts with a Go test function name.
var testName = regexp.MustCompile(`^(Test|Fuzz|Benchmark|Example)\w*\b`)

// buildAllowMap indexes //gnnvet:allow directives: a directive suppresses
// the named checks on its own source line (trailing-comment form) and on the
// line directly below it (own-line form).
func (p *Package) buildAllowMap() {
	p.allow = map[string][]string{}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowDirective) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, allowDirective)
				// Everything after " -- " is prose explaining the waiver.
				reason := ""
				if i := strings.Index(rest, " -- "); i >= 0 {
					rest, reason = rest[:i], rest[i+len(" -- "):]
				}
				var names []string
				for _, n := range strings.FieldsFunc(rest, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' }) {
					// An unreachable waiver keeps a function for another
					// package's test, so it counts only when it names one.
					if n == "unreachable" && !testName.MatchString(reason) {
						continue
					}
					names = append(names, n)
				}
				pos := p.Fset.Position(c.Pos())
				for _, line := range []int{pos.Line, pos.Line + 1} {
					key := allowKey(pos.Filename, line)
					p.allow[key] = append(p.allow[key], names...)
				}
			}
		}
	}
}

func allowKey(file string, line int) string { return fmt.Sprintf("%s:%d", file, line) }

// allowedAt reports whether a //gnnvet:allow directive sanctions check at
// the given position.
func (p *Package) allowedAt(pos token.Position, check string) bool {
	for _, name := range p.allow[allowKey(pos.Filename, pos.Line)] {
		if name == check || name == "all" {
			return true
		}
	}
	return false
}
