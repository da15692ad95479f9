package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// The Program layer is what turns gnnvet from a bag of per-function AST walks
// into a (deliberately lightweight) interprocedural engine. One Program spans
// every package of a load: a map from declared functions to their bodies, a
// call-graph resolver that follows direct calls and — for interfaces defined
// inside the load — method-set dispatch, and the per-function Summary table
// computed to a fixpoint in summary.go. Checks keep running per package (so
// //gnnvet:allow scoping and diagnostics stay package-local), but consult the
// Program to see through calls: a channel send three helpers deep, a mutex
// acquired inside a callee, a tensor released by a cleanup function.
//
// Functions outside the load (the standard library, dependencies satisfied
// from export data) have no bodies here and therefore no summaries; calls to
// them are assumed non-blocking, lock-free and taint-free except for the
// small leaf tables in summary.go (net dials, time.Sleep, io fills,
// encoding/binary reads). That asymmetry is the engine's main soundness
// trade-off and is documented with the checks.

// Program is the whole-load view the interprocedural checks share.
type Program struct {
	// Pkgs are the loaded packages, sorted by import path.
	Pkgs []*Package
	// Fset is the single FileSet covering every package in the load.
	Fset *token.FileSet
	// Funcs maps every function and method declared (with a body) in the
	// load to its declaration site.
	Funcs map[*types.Func]*FuncInfo

	// summaries is the fixpoint summary table, keyed like Funcs.
	summaries map[*types.Func]*Summary
	// bufferedChans holds the variable and field objects observed to be
	// bound to a channel made with an explicit capacity argument anywhere in
	// the load (the buffered-completion idiom: job.done, request.done,
	// loader slots). Sends on such channels are exempt from the blocking
	// analysis.
	bufferedChans map[types.Object]bool
	// implCache memoizes interface-method resolution.
	implCache map[*types.Func][]*types.Func
	// namedTypes are the non-interface named types declared in the load,
	// in deterministic order — the candidate set for method-set dispatch.
	namedTypes []*types.Named
	// fileOwner maps a file name to the package that declared it, so
	// program-wide findings can be attributed to the pass whose package owns
	// the position.
	fileOwner map[string]*Package

	// lockReports memoizes the global lock-order cycle findings, computed
	// once per Program by lockCycleReports.
	lockReports     []progReport
	lockReportsDone bool
	// unreachable memoizes the unreachable check's findings, computed once
	// per Program by unreachableReports.
	unreachable     []progReport
	unreachableDone bool

	// CacheHit reports whether the summary table was restored from a
	// -summary-cache file instead of being recomputed.
	CacheHit bool
}

// FuncInfo is one declared function with its body.
type FuncInfo struct {
	Fn   *types.Func
	Pkg  *Package
	Decl *ast.FuncDecl
}

// BuildProgram indexes the loaded packages. Summaries are not yet computed;
// Summarize (or RunWithCache, which calls it) does that.
func BuildProgram(pkgs []*Package) *Program {
	prog := &Program{
		Pkgs:          pkgs,
		Funcs:         map[*types.Func]*FuncInfo{},
		bufferedChans: map[types.Object]bool{},
		implCache:     map[*types.Func][]*types.Func{},
		fileOwner:     map[string]*Package{},
	}
	for _, pkg := range pkgs {
		if prog.Fset == nil {
			prog.Fset = pkg.Fset
		}
		for _, f := range pkg.Files {
			prog.fileOwner[pkg.Fset.Position(f.Pos()).Filename] = pkg
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					prog.Funcs[fn] = &FuncInfo{Fn: fn, Pkg: pkg, Decl: fd}
				}
			}
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() { // Names() is sorted
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			prog.namedTypes = append(prog.namedTypes, named)
		}
		prog.collectBufferedChans(pkg)
	}
	return prog
}

// sortedFuncs returns every declared function in deterministic (position)
// order, so fixpoint tie-breaking and diagnostics never depend on map order.
func (prog *Program) sortedFuncs() []*FuncInfo {
	out := make([]*FuncInfo, 0, len(prog.Funcs))
	for _, fi := range prog.Funcs {
		out = append(out, fi)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Decl.Pos() < out[j].Decl.Pos() })
	return out
}

// Callees resolves a call to the loaded functions it may invoke: the direct
// target when it is declared in the load, or — for a method on an interface
// defined in the load — every loaded implementation of that method, found by
// method-set resolution over the load's named types. Calls that leave the
// load resolve to nothing.
func (prog *Program) Callees(info *types.Info, call *ast.CallExpr) []*FuncInfo {
	fn := calleeFunc(info, call)
	if fn == nil {
		return nil
	}
	if fi := prog.Funcs[fn]; fi != nil {
		return []*FuncInfo{fi}
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	iface, ok := sig.Recv().Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	// Only dispatch over interfaces the load itself defines — resolving
	// io.Reader to every loaded Read would drown the checks in noise.
	if !prog.ownsInterface(sig.Recv().Type()) {
		return nil
	}
	if cached, ok := prog.implCache[fn]; ok {
		return prog.infosOf(cached)
	}
	var impls []*types.Func
	for _, named := range prog.namedTypes {
		var recv types.Type = named
		if !types.Implements(recv, iface) {
			recv = types.NewPointer(named)
			if !types.Implements(recv, iface) {
				continue
			}
		}
		obj, _, _ := types.LookupFieldOrMethod(recv, true, named.Obj().Pkg(), fn.Name())
		if m, ok := obj.(*types.Func); ok && prog.Funcs[m] != nil {
			impls = append(impls, m)
		}
	}
	sort.Slice(impls, func(i, j int) bool { return impls[i].FullName() < impls[j].FullName() })
	prog.implCache[fn] = impls
	return prog.infosOf(impls)
}

func (prog *Program) infosOf(fns []*types.Func) []*FuncInfo {
	var out []*FuncInfo
	for _, fn := range fns {
		if fi := prog.Funcs[fn]; fi != nil {
			out = append(out, fi)
		}
	}
	return out
}

// ownsInterface reports whether the (possibly named) interface type is
// declared by one of the loaded packages.
func (prog *Program) ownsInterface(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok || named.Obj() == nil {
		return false
	}
	return prog.ownsPackage(named.Obj().Pkg())
}

// ownsPackage reports whether p is one of the loaded packages.
func (prog *Program) ownsPackage(p *types.Package) bool {
	for _, pkg := range prog.Pkgs {
		if pkg.Types == p {
			return true
		}
	}
	return false
}

// ownerOf returns the loaded package that declared the file at pos, if any.
func (prog *Program) ownerOf(pos token.Pos) *Package {
	return prog.fileOwner[prog.Fset.Position(pos).Filename]
}

// collectBufferedChans records every variable or struct field the package
// binds to make(chan T, capacity): plain assignments, struct composite
// literals (job{done: make(chan error, 1)}) and indexed stores
// (l.slots[i] = make(chan *Batch, 1)). A send on such a channel follows the
// buffered-completion idiom — exactly-once sends that cannot block — and is
// exempt from the goroutine-leak blocking analysis.
func (prog *Program) collectBufferedChans(pkg *Package) {
	info := pkg.Info
	mark := func(e ast.Expr) {
		if obj := chanObjOf(info, e); obj != nil {
			prog.bufferedChans[obj] = true
		}
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, rhs := range n.Rhs {
					if i < len(n.Lhs) && isBufferedMakeChan(info, rhs) {
						mark(n.Lhs[i])
					}
				}
			case *ast.ValueSpec:
				for i, v := range n.Values {
					if i < len(n.Names) && isBufferedMakeChan(info, v) {
						mark(n.Names[i])
					}
				}
			case *ast.CompositeLit:
				for _, el := range n.Elts {
					kv, ok := el.(*ast.KeyValueExpr)
					if !ok || !isBufferedMakeChan(info, kv.Value) {
						continue
					}
					mark(kv.Key)
				}
			}
			return true
		})
	}
}

// isBufferedMakeChan matches make(chan T, capacity) with an explicit
// capacity that is not the constant zero.
func isBufferedMakeChan(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) < 2 {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "make" {
		return false
	}
	if b, ok := info.Uses[id].(*types.Builtin); !ok || b.Name() != "make" {
		return false
	}
	tv, ok := info.Types[call.Args[0]]
	if !ok {
		return false
	}
	if _, isChan := tv.Type.Underlying().(*types.Chan); !isChan {
		return false
	}
	if c, ok := constInt(info, call.Args[1]); ok && c == 0 {
		return false
	}
	return true
}

// chanObjOf resolves the variable or struct-field object a channel
// expression denotes: an identifier, a field selector, or the base of an
// indexed store ([]chan / map of chans).
func chanObjOf(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := info.Uses[e]; obj != nil {
			return obj
		}
		return info.Defs[e]
	case *ast.SelectorExpr:
		return info.Uses[e.Sel]
	case *ast.IndexExpr:
		return chanObjOf(info, e.X)
	}
	return nil
}

// BufferedChan reports whether e denotes a channel the load observably made
// with an explicit capacity (see collectBufferedChans).
func (prog *Program) BufferedChan(info *types.Info, e ast.Expr) bool {
	obj := chanObjOf(info, e)
	return obj != nil && prog.bufferedChans[obj]
}

// funcKey is the stable identifier a function's summary is cached under:
// go/types' full name, e.g. "(*repro/internal/fleet.Manager).connectWorker".
func funcKey(fn *types.Func) string { return fn.FullName() }

// walkSameGoroutine walks body like inspectShallow, but additionally
// descends into function literals that run on the *same* goroutine as the
// enclosing function: deferred literals (defer func() { ... }()) and
// immediately-invoked ones (func() { ... }()). Literals launched with go,
// assigned to variables or passed as arguments stay opaque — their effects
// belong to whoever runs them.
func walkSameGoroutine(body ast.Node, fn func(ast.Node) bool) {
	inline := map[*ast.FuncLit]bool{}
	goCalls := map[*ast.CallExpr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			// Visited before its CallExpr child; go func(){...}() is its own
			// goroutine, never inline.
			goCalls[n.Call] = true
		case *ast.CallExpr:
			if lit, ok := ast.Unparen(n.Fun).(*ast.FuncLit); ok && !goCalls[n] {
				inline[lit] = true
			}
		}
		return true
	})
	var guard func(ast.Node) bool
	guard = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return inline[n]
		case *ast.GoStmt:
			// The spawned call runs elsewhere (goroutine-leak walks it), but
			// its arguments are evaluated on this goroutine.
			if !fn(n) {
				return false
			}
			for _, arg := range n.Call.Args {
				ast.Inspect(arg, guard)
			}
			return false
		}
		return fn(n)
	}
	ast.Inspect(body, guard)
}
