package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// The unreachable check reports functions that no binary in the load can
// contain. It walks the load from its roots:
//
//   - main and init of every loaded main package;
//   - the exported functions and methods declared in the root package (the
//     package whose import path is its module's path: the library facade);
//   - init and every package-level var declaration of every loaded package.
//
// A reached body reaches every function its identifiers use (calls,
// function values, method values and expressions; a generic function
// through its origin) and every named type that appears in it. A method of a
// reached type is reached when its name and signature match a method of any
// interface type the load declares, uses or imports, standard-library ones
// included (error, fmt.Stringer, io.Writer, http.Handler, json.Marshaler):
// the check does not track which values flow into which interface.
//
// Soundness errs toward keeping code. Every edge the linker can follow is
// followed or over-approximated, so a reported function is in no binary the
// load builds; dead code that only looks live (a method whose name matches
// some interface) goes unreported. The verdict is relative to the loaded
// main packages, so a load with none reports nothing, and functions are
// reported only in packages some loaded root imports.
//
// A function kept for other packages' tests carries
// `//gnnvet:allow unreachable -- <TestName>` on the line above it; a waiver
// that names no test is ignored. A waived function that a root reaches is
// reported where the root's code first reaches it, so a waiver cannot hide
// live code.
var unreachableCheck = &Check{
	Name: "unreachable",
	Doc:  "function no main package, root-package export or initializer reaches",
	Run:  runUnreachable,
}

func runUnreachable(pass *Pass) {
	for _, rep := range pass.Prog.unreachableReports() {
		if pass.Prog.ownerOf(rep.pos) != pass.Pkg {
			continue
		}
		pass.Reportf(rep.pos, "%s", rep.msg)
	}
}

// unreachableReports computes (once per Program) the dead-function and
// reached-waiver findings of the whole load.
func (prog *Program) unreachableReports() []progReport {
	if prog.unreachableDone {
		return prog.unreachable
	}
	prog.unreachableDone = true

	r := &reacher{
		prog:    prog,
		reached: map[*types.Func]bool{},
		seen:    map[*types.Named]bool{},
		methods: prog.interfaceMethods(),
	}
	var roots []*Package
	for _, pkg := range prog.Pkgs {
		if pkg.Name == "main" || pkg.Path == pkg.Module {
			roots = append(roots, pkg)
		}
	}
	hasMain := false
	for _, pkg := range roots {
		hasMain = hasMain || pkg.Name == "main"
	}
	if !hasMain {
		return nil
	}
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if isRootFunc(pkg, d) {
						if fn, ok := pkg.Info.Defs[d.Name].(*types.Func); ok {
							r.reach(fn, d.Name.Pos())
						}
					}
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						r.walk(pkg, d)
					}
				}
			}
		}
	}
	r.run()

	for _, w := range r.waivedHits {
		prog.unreachable = append(prog.unreachable, progReport{
			pos: w.pos,
			msg: funcName(w.fn) + " carries an unreachable waiver, but a root reaches it here; drop the waiver",
		})
	}
	scope := importClosure(roots)
	for _, fi := range prog.sortedFuncs() {
		d := fi.Decl
		if r.reached[fi.Fn] || !scope[fi.Pkg.Types] || d.Name.Name == "_" ||
			(d.Recv == nil && (d.Name.Name == "init" || fi.Pkg.Name == "main" && d.Name.Name == "main")) {
			continue
		}
		prog.unreachable = append(prog.unreachable, progReport{
			pos: d.Name.Pos(),
			msg: funcName(fi.Fn) + " is reached by no main package, root-package export or initializer",
		})
	}
	sort.SliceStable(prog.unreachable, func(i, j int) bool { return prog.unreachable[i].pos < prog.unreachable[j].pos })
	return prog.unreachable
}

// isRootFunc reports whether d is a reachability root of its package.
func isRootFunc(pkg *Package, d *ast.FuncDecl) bool {
	name := d.Name.Name
	switch {
	case d.Recv == nil && name == "init":
		return true
	case pkg.Name == "main":
		return d.Recv == nil && name == "main"
	case pkg.Path == pkg.Module:
		return ast.IsExported(name)
	}
	return false
}

// importClosure returns the packages the roots import, directly or not,
// the roots included.
func importClosure(roots []*Package) map[*types.Package]bool {
	out := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if out[p] {
			return
		}
		out[p] = true
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range roots {
		visit(pkg.Types)
	}
	return out
}

// interfaceMethods indexes by name the methods of every interface type the
// load can dispatch through: those declared at package scope in the load
// and in everything it imports, those written inline in the load, and
// error.
func (prog *Program) interfaceMethods() map[string][]*types.Signature {
	out := map[string][]*types.Signature{}
	add := func(t types.Type) {
		iface, ok := t.Underlying().(*types.Interface)
		if !ok {
			return
		}
		for i := 0; i < iface.NumMethods(); i++ {
			m := iface.Method(i)
			out[m.Name()] = append(out[m.Name()], m.Type().(*types.Signature))
		}
	}
	add(types.Universe.Lookup("error").Type())
	visited := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range prog.Pkgs {
		visit(pkg.Types)
		for _, tv := range pkg.Info.Types {
			add(tv.Type)
		}
	}
	return out
}

// reacher is one reachability walk over a Program.
type reacher struct {
	prog    *Program
	reached map[*types.Func]bool
	queue   []*FuncInfo
	// seen and named hold the load's named types reached so far; named is
	// the dispatch worklist, in discovery order.
	seen    map[*types.Named]bool
	named   []*types.Named
	methods map[string][]*types.Signature
	// waivedHits records, per waived function a root reaches, the first
	// site that reaches it.
	waivedHits []waivedHit
}

type waivedHit struct {
	fn  *types.Func
	pos token.Pos
}

// reach marks fn reached from the identifier at pos.
func (r *reacher) reach(fn *types.Func, pos token.Pos) {
	fn = fn.Origin()
	fi := r.prog.Funcs[fn]
	if fi == nil || r.reached[fn] {
		return
	}
	r.reached[fn] = true
	if fi.Pkg.allowedAt(r.prog.Fset.Position(fi.Decl.Name.Pos()), "unreachable") {
		r.waivedHits = append(r.waivedHits, waivedHit{fn, pos})
	}
	r.queue = append(r.queue, fi)
}

// run drains the function and type worklists to a fixpoint.
func (r *reacher) run() {
	for len(r.queue) > 0 || len(r.named) > 0 {
		for len(r.queue) > 0 {
			fi := r.queue[0]
			r.queue = r.queue[1:]
			r.walk(fi.Pkg, fi.Decl)
		}
		for len(r.named) > 0 {
			t := r.named[0]
			r.named = r.named[1:]
			if types.IsInterface(t) {
				continue
			}
			ms := types.NewMethodSet(types.NewPointer(t))
			for i := 0; i < ms.Len(); i++ {
				m := ms.At(i).Obj().(*types.Func)
				if r.dispatchable(m) {
					r.reach(m, t.Obj().Pos())
				}
			}
		}
	}
}

// dispatchable reports whether some interface method has m's name and
// signature.
func (r *reacher) dispatchable(m *types.Func) bool {
	sig := m.Type().(*types.Signature)
	for _, im := range r.methods[m.Name()] {
		if types.Identical(sig, im) {
			return true
		}
	}
	return false
}

// walk reaches every function and named type node uses.
func (r *reacher) walk(pkg *Package, node ast.Node) {
	info := pkg.Info
	ast.Inspect(node, func(n ast.Node) bool {
		e, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		if tv, ok := info.Types[e]; ok {
			r.addType(tv.Type)
		}
		if id, ok := e.(*ast.Ident); ok {
			if fn, ok := info.Uses[id].(*types.Func); ok {
				r.reach(fn, id.Pos())
			}
		}
		return true
	})
}

// addType reaches the load's named types that make up t.
func (r *reacher) addType(t types.Type) {
	switch t := types.Unalias(t).(type) {
	case *types.Named:
		if r.seen[t] {
			return
		}
		r.seen[t] = true
		for i := 0; i < t.TypeArgs().Len(); i++ {
			r.addType(t.TypeArgs().At(i))
		}
		if r.prog.ownsPackage(t.Obj().Pkg()) {
			r.named = append(r.named, t)
			r.addType(t.Underlying())
		}
	case *types.Pointer:
		r.addType(t.Elem())
	case *types.Slice:
		r.addType(t.Elem())
	case *types.Array:
		r.addType(t.Elem())
	case *types.Chan:
		r.addType(t.Elem())
	case *types.Map:
		r.addType(t.Key())
		r.addType(t.Elem())
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			r.addType(t.Field(i).Type())
		}
	case *types.Signature:
		r.addType(t.Params())
		r.addType(t.Results())
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			r.addType(t.At(i).Type())
		}
	}
}

// funcName renders fn as pkg.F or (*pkg.T).M for diagnostics.
func funcName(fn *types.Func) string {
	qual := func(p *types.Package) string { return p.Name() }
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	recv := types.TypeString(sig.Recv().Type(), qual)
	if _, ptr := sig.Recv().Type().(*types.Pointer); ptr {
		recv = "(" + recv + ")"
	}
	return recv + "." + fn.Name()
}
