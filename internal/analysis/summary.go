package analysis

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"sort"
	"strings"
)

// Per-function summaries are the engine's dataflow currency: one pass over
// every declared body extracts local facts (unguarded channel operations,
// blocking leaf calls, lock acquisition spans, wire-tainted returns, released
// parameters), then a fixpoint loop propagates them over the call graph until
// nothing changes. The checks then answer interprocedural questions — "can
// this goroutine block forever?", "does this callee acquire a mutex while I
// hold one?" — with a map lookup instead of a whole-program walk.
//
// The summaries are deliberately *may* analyses over a textual model of
// control flow (the same approximation lock-balance has always used): a fact
// holds if some syntactic path exhibits it, branches are not path-sensitive,
// and loops are not unrolled. DESIGN.md §16 spells out what that does and
// does not claim.

// Summary is one function's interprocedural fact sheet. Fields are exported
// (and position-typed fields serialize as raw token.Pos offsets) so the
// table can round-trip through the -summary-cache file; offsets stay valid
// because the cache is keyed by a fingerprint of the exact file set that
// produced the FileSet.
type Summary struct {
	// TakesCtx reports a context.Context parameter.
	TakesCtx bool `json:"takes_ctx,omitempty"`
	// SelectsDone reports a receive from a Done()-style channel (any method
	// named Done returning a receive-only channel) anywhere in the body —
	// the function has a cancellation path.
	SelectsDone bool `json:"selects_done,omitempty"`

	// Blocks reports that the function (or a callee, transitively) can block
	// forever on an unguarded channel operation. BlockPos/BlockWhat name the
	// root site.
	Blocks    bool      `json:"blocks,omitempty"`
	BlockPos  token.Pos `json:"block_pos,omitempty"`
	BlockWhat string    `json:"block_what,omitempty"`

	// BlocksIO reports that the function (or a callee) performs blocking
	// I/O-ish work from the leaf table (net dials, time.Sleep, io fills)
	// without taking a context at that site. IOPos/IOWhat name the root.
	BlocksIO bool      `json:"blocks_io,omitempty"`
	IOPos    token.Pos `json:"io_pos,omitempty"`
	IOWhat   string    `json:"io_what,omitempty"`

	// TaintedReturn reports that some result is an integer read from wire
	// bytes (encoding/binary Uint16/32/64, transitively) with no bounding
	// comparison before the return. BoundedReturn reports a wire-derived
	// result that *was* compared before returning (the d.count idiom).
	TaintedReturn bool `json:"tainted_return,omitempty"`
	BoundedReturn bool `json:"bounded_return,omitempty"`

	// Acquires maps type-qualified lock keys ("fleet.Manager.lifeMu") the
	// function may acquire — directly or via callees — to a representative
	// acquisition site.
	Acquires map[string]LockSite `json:"acquires,omitempty"`
	// LockEdges are held→acquired pairs observed with both sites: FromPos
	// holds the already-held lock's acquisition, ToPos the nested one (or
	// the call that leads to it, with Via naming the callee).
	LockEdges []LockEdge `json:"lock_edges,omitempty"`

	// ReleasesParams lists parameter indices passed to tensor.Release
	// (directly or via callees), for the use-after-release check.
	ReleasesParams []int `json:"releases_params,omitempty"`
}

// LockSite is one lock acquisition location.
type LockSite struct {
	Pos token.Pos `json:"pos"`
	// Via names the callee chain when the acquisition is indirect ("" for a
	// direct Lock call in this function).
	Via string `json:"via,omitempty"`
}

// LockEdge is one observed lock-order edge: To acquired while From is held.
type LockEdge struct {
	From    string    `json:"from"`
	To      string    `json:"to"`
	FromPos token.Pos `json:"from_pos"`
	ToPos   token.Pos `json:"to_pos"`
	// Via names the callee that performs the nested acquisition when the
	// edge crosses a call ("" when both locks are taken in one body).
	Via string `json:"via,omitempty"`
	// Func is the fully-qualified function the edge was observed in.
	Func string `json:"func"`
}

// ioLeaves are the out-of-load calls the engine treats as blocking I/O:
// pkg path → function or method names. Callees with bodies in the load are
// summarized instead, so this table only needs the true leaves.
var ioLeaves = map[string]map[string]bool{
	"net":  {"Dial": true, "DialTimeout": true, "DialIP": true, "DialTCP": true, "DialUDP": true},
	"time": {"Sleep": true},
	"io":   {"ReadFull": true, "ReadAtLeast": true, "Copy": true, "CopyN": true, "ReadAll": true},
}

// taintSources are the out-of-load calls whose integer results are raw wire
// reads: encoding/binary's fixed-width decoders (Uint8 is excluded — a byte
// cannot size an interesting allocation).
func isTaintSource(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "encoding/binary" {
		return false
	}
	switch fn.Name() {
	case "Uint16", "Uint32", "Uint64":
		return true
	}
	return false
}

// isIOLeaf reports whether fn is in the blocking-I/O leaf table. Calls that
// receive a context (net.Dialer.DialContext) are handled at the call site by
// the ctx-propagation check, not here.
func isIOLeaf(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	names := ioLeaves[fn.Pkg().Path()]
	return names != nil && names[fn.Name()]
}

// Summarize computes the fixpoint summary table, optionally reusing or
// refreshing the cache file at cachePath ("" disables caching).
func (prog *Program) Summarize(cachePath string) {
	if prog.summaries != nil {
		return
	}
	if cachePath != "" {
		if cached := prog.loadSummaryCache(cachePath); cached != nil {
			prog.summaries = cached
			prog.CacheHit = true
			return
		}
	}
	prog.summaries = map[*types.Func]*Summary{}
	funcs := prog.sortedFuncs()
	for _, fi := range funcs {
		prog.summaries[fi.Fn] = &Summary{}
	}
	// Local facts first, then propagate to a fixpoint. Everything computed
	// here is monotone (bits only turn on, sets only grow), so iteration
	// order affects only which representative site wins ties — and the
	// sorted order plus smallest-position tie-breaks make that stable.
	for changed := true; changed; {
		changed = false
		for _, fi := range funcs {
			if prog.summarizeFunc(fi) {
				changed = true
			}
		}
	}
	if cachePath != "" {
		prog.saveSummaryCache(cachePath)
	}
}

// SummaryOf returns fn's summary, or nil for functions outside the load.
func (prog *Program) SummaryOf(fn *types.Func) *Summary {
	if fn == nil {
		return nil
	}
	return prog.summaries[fn]
}

// summarizeFunc recomputes one function's summary against the current table,
// reporting whether anything changed.
func (prog *Program) summarizeFunc(fi *FuncInfo) bool {
	old := prog.summaries[fi.Fn]
	sum := prog.extractSummary(fi)
	if summariesEqual(old, sum) {
		return false
	}
	prog.summaries[fi.Fn] = sum
	return true
}

func summariesEqual(a, b *Summary) bool {
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	return string(ja) == string(jb)
}

// extractSummary computes fi's summary from its body plus current callee
// summaries.
func (prog *Program) extractSummary(fi *FuncInfo) *Summary {
	info := fi.Pkg.Info
	sum := &Summary{}

	sig := fi.Fn.Type().(*types.Signature)
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			sum.TakesCtx = true
		}
	}

	chanFacts := prog.chanFacts(fi)
	if chanFacts.selectsDone {
		sum.SelectsDone = true
	}
	if op := chanFacts.firstUnguarded; op != nil {
		sum.setBlock(op.pos, op.desc)
	}

	// Propagate blocking, I/O, taint and releases through calls; collect
	// lock spans and edges.
	locks := prog.lockFacts(fi)
	sum.Acquires = locks.acquires
	sum.LockEdges = locks.edges

	walkSameGoroutine(fi.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := calleeFunc(info, call); fn != nil && isIOLeaf(fn) && !callPassesCtx(info, call) {
			sum.setIO(call.Pos(), fn.Pkg().Name()+"."+fn.Name())
		}
		for _, callee := range prog.Callees(info, call) {
			cs := prog.summaries[callee.Fn]
			if cs == nil {
				continue
			}
			if cs.Blocks {
				sum.setBlock(cs.BlockPos, cs.BlockWhat)
			}
			if cs.BlocksIO {
				sum.setIO(cs.IOPos, cs.IOWhat)
			}
			for _, pi := range cs.ReleasesParams {
				if pi < len(call.Args) {
					if obj := usedObject(info, call.Args[pi]); obj != nil {
						if idx := paramIndex(sig, fi.Decl, info, obj); idx >= 0 {
							sum.addReleasesParam(idx)
						}
					}
				}
			}
		}
		// Direct tensor.Release(param) — the base case for release summaries.
		if fn := calleeFunc(info, call); fn != nil && fn.Pkg() != nil &&
			fn.Pkg().Name() == "tensor" && fn.Name() == "Release" &&
			fn.Type().(*types.Signature).Recv() == nil {
			for _, arg := range call.Args {
				if obj := usedObject(info, arg); obj != nil {
					if idx := paramIndex(sig, fi.Decl, info, obj); idx >= 0 {
						sum.addReleasesParam(idx)
					}
				}
			}
		}
		return true
	})

	tainted, bounded := prog.returnTaint(fi)
	sum.TaintedReturn = tainted
	sum.BoundedReturn = bounded
	return sum
}

func (s *Summary) setBlock(pos token.Pos, what string) {
	if s.Blocks && s.BlockPos <= pos {
		return
	}
	s.Blocks, s.BlockPos, s.BlockWhat = true, pos, what
}

func (s *Summary) setIO(pos token.Pos, what string) {
	if s.BlocksIO && s.IOPos <= pos {
		return
	}
	s.BlocksIO, s.IOPos, s.IOWhat = true, pos, what
}

func (s *Summary) addReleasesParam(i int) {
	for _, v := range s.ReleasesParams {
		if v == i {
			return
		}
	}
	s.ReleasesParams = append(s.ReleasesParams, i)
	sort.Ints(s.ReleasesParams)
}

// isContextType matches context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// callPassesCtx reports whether any argument of call has context type.
func callPassesCtx(info *types.Info, call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		if tv, ok := info.Types[arg]; ok && isContextType(tv.Type) {
			return true
		}
	}
	return false
}

// paramIndex maps obj back to its position in the function's parameter list,
// or -1 when obj is not a parameter.
func paramIndex(sig *types.Signature, decl *ast.FuncDecl, info *types.Info, obj types.Object) int {
	for i := 0; i < sig.Params().Len(); i++ {
		if sig.Params().At(i) == obj {
			return i
		}
	}
	return -1
}

// ---- channel-operation facts ------------------------------------------------

type chanOp struct {
	pos  token.Pos
	desc string
}

type chanFactSet struct {
	firstUnguarded *chanOp
	selectsDone    bool
}

// chanFacts finds the first channel operation in fi's body that can block
// forever, applying the guard model shared with goroutine-leak:
//
//   - an operation that is the comm clause of a select with two or more
//     cases (including default) has an escape path — guarded;
//   - a receive from a Done()-style method call or from a time-package
//     channel (time.After, Timer.C) is an intentional or bounded wait;
//   - a send on a channel made with an explicit capacity anywhere in the
//     load follows the buffered-completion idiom — exempt;
//   - range over a channel is governed by close discipline — exempt.
//
// Everything else — a bare send on an unbuffered channel, a bare receive
// from a data channel — is a potential forever-block.
func (prog *Program) chanFacts(fi *FuncInfo) chanFactSet {
	return prog.chanFactsIn(fi.Pkg, fi.Decl.Body)
}

// chanFactsIn is chanFacts over any body (the goroutine-leak check reuses it
// for go-statement function literals).
func (prog *Program) chanFactsIn(pkg *Package, body ast.Node) chanFactSet {
	info := pkg.Info
	var out chanFactSet
	guarded := guardedCommOps(body)
	record := func(pos token.Pos, desc string) {
		if out.firstUnguarded == nil || pos < out.firstUnguarded.pos {
			out.firstUnguarded = &chanOp{pos: pos, desc: desc}
		}
	}
	walkSameGoroutine(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			if guarded[n] {
				return true
			}
			if prog.BufferedChan(info, n.Chan) {
				return true
			}
			record(n.Pos(), "send on "+chanDesc(n.Chan))
		case *ast.UnaryExpr:
			if n.Op != token.ARROW || guarded[n] {
				return true
			}
			if isDoneRecv(info, n.X) || isTimeChan(info, n.X) {
				out.selectsDone = out.selectsDone || isDoneRecv(info, n.X)
				return true
			}
			record(n.Pos(), "receive from "+chanDesc(n.X))
		case *ast.SelectStmt:
			// Done() receives inside selects still mark a cancellation path.
			for _, c := range n.Body.List {
				cc := c.(*ast.CommClause)
				if cc.Comm == nil {
					continue
				}
				ast.Inspect(cc.Comm, func(m ast.Node) bool {
					if u, ok := m.(*ast.UnaryExpr); ok && u.Op == token.ARROW && isDoneRecv(info, u.X) {
						out.selectsDone = true
					}
					return true
				})
			}
		}
		return true
	})
	return out
}

// guardedCommOps collects the comm operations of selects with an escape path
// (two or more clauses, counting default).
func guardedCommOps(body ast.Node) map[ast.Node]bool {
	guarded := map[ast.Node]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok || len(sel.Body.List) < 2 {
			return true
		}
		for _, c := range sel.Body.List {
			cc := c.(*ast.CommClause)
			switch comm := cc.Comm.(type) {
			case *ast.SendStmt:
				guarded[comm] = true
			case *ast.ExprStmt:
				guarded[ast.Unparen(comm.X)] = true
			case *ast.AssignStmt:
				if len(comm.Rhs) == 1 {
					guarded[ast.Unparen(comm.Rhs[0])] = true
				}
			}
		}
		return true
	})
	return guarded
}

// isDoneRecv matches receives from a method named Done returning a
// receive-only channel — ctx.Done() and the repo's done-channel accessors.
func isDoneRecv(info *types.Info, ch ast.Expr) bool {
	call, ok := ast.Unparen(ch).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := calleeFunc(info, call)
	if fn == nil || fn.Name() != "Done" {
		return false
	}
	results := fn.Type().(*types.Signature).Results()
	if results.Len() != 1 {
		return false
	}
	c, ok := results.At(0).Type().Underlying().(*types.Chan)
	return ok && c.Dir() == types.RecvOnly
}

// isTimeChan matches receives whose channel comes from package time —
// time.After(...) results and Timer/Ticker .C fields — bounded waits, not
// leaks.
func isTimeChan(info *types.Info, ch ast.Expr) bool {
	switch e := ast.Unparen(ch).(type) {
	case *ast.CallExpr:
		fn := calleeFunc(info, e)
		return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "time"
	case *ast.SelectorExpr:
		obj := info.Uses[e.Sel]
		return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "time"
	}
	return false
}

// chanDesc renders a channel expression for diagnostics.
func chanDesc(e ast.Expr) string {
	if key := exprKey(e); key != "" {
		return key
	}
	return "channel"
}

// ---- lock facts -------------------------------------------------------------

type lockFactSet struct {
	acquires map[string]LockSite
	edges    []LockEdge
}

// lockFacts extracts the function's lock acquisitions and held→acquired
// edges, consulting callee summaries for acquisitions behind calls. The held
// range of a lock is textual: from its Lock call to the first matching
// unlock, or to the end of the body when the unlock is deferred or absent —
// the same approximation lock-balance uses.
func (prog *Program) lockFacts(fi *FuncInfo) lockFactSet {
	info := fi.Pkg.Info
	out := lockFactSet{acquires: map[string]LockSite{}}
	fname := funcKey(fi.Fn)

	type acq struct {
		key      string
		pos, end token.Pos
	}
	var acqs []acq
	type rel struct {
		key string
		pos token.Pos
	}
	var rels []rel
	type callRec struct {
		pos     token.Pos
		callees []*FuncInfo
	}
	var calls []callRec

	end := fi.Decl.Body.End()
	walkSameGoroutine(fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			// A deferred unlock releases at return; the textual model treats
			// the lock as held to the end of the body, which is what a
			// nested acquisition inside the span actually observes.
			return true
		case *ast.CallExpr:
			for _, pair := range lockPairs {
				if recv := syncMethod2(info, n, pair.lock); recv != nil {
					if key := prog.lockKey(info, recv); key != "" {
						acqs = append(acqs, acq{key: key, pos: n.Pos(), end: end})
						if _, ok := out.acquires[key]; !ok {
							out.acquires[key] = LockSite{Pos: n.Pos()}
						}
					}
					return true
				}
				if recv := syncMethod2(info, n, pair.unlock); recv != nil {
					if key := prog.lockKey(info, recv); key != "" && !inDefer(fi.Decl.Body, n) {
						rels = append(rels, rel{key: key, pos: n.Pos()})
					}
					return true
				}
			}
			if cs := prog.Callees(info, n); len(cs) > 0 {
				calls = append(calls, callRec{pos: n.Pos(), callees: cs})
			}
		}
		return true
	})

	// Close each acquisition's span at the first later matching unlock.
	for i := range acqs {
		for _, r := range rels {
			if r.key == acqs[i].key && r.pos > acqs[i].pos && r.pos < acqs[i].end {
				acqs[i].end = r.pos
			}
		}
	}

	addEdge := func(e LockEdge) {
		if e.From == e.To {
			// Same type-qualified field on two instances (r1.mu, r2.mu) is
			// an ordering problem this key scheme cannot see; a self-edge
			// here is noise, not a cycle.
			return
		}
		for _, have := range out.edges {
			if have.From == e.From && have.To == e.To {
				return
			}
		}
		out.edges = append(out.edges, e)
	}

	for _, a := range acqs {
		for _, b := range acqs {
			if b.pos > a.pos && b.pos < a.end {
				addEdge(LockEdge{From: a.key, To: b.key, FromPos: a.pos, ToPos: b.pos, Func: fname})
			}
		}
		for _, c := range calls {
			if c.pos <= a.pos || c.pos >= a.end {
				continue
			}
			for _, callee := range c.callees {
				cs := prog.summaries[callee.Fn]
				if cs == nil {
					continue
				}
				for _, key := range sortedKeys(cs.Acquires) {
					addEdge(LockEdge{
						From: a.key, To: key, FromPos: a.pos, ToPos: c.pos,
						Via: callee.Fn.Name(), Func: fname,
					})
				}
			}
		}
	}

	// Transitive acquisitions via callees (held or not) propagate upward so
	// callers holding locks see them. The representative site is the one
	// with the shortest callee chain (first in source order among equals): a
	// decorator calling its own interface method on a wrapped value sees
	// itself among the callees, and taking whichever chain came first would
	// prepend one more hop every pass and never reach a fixpoint. Hop counts
	// only shrink from pass to pass and a chain through the function itself
	// is never the shortest, so this one converges.
	for _, c := range calls {
		for _, callee := range c.callees {
			cs := prog.summaries[callee.Fn]
			if cs == nil {
				continue
			}
			for _, key := range sortedKeys(cs.Acquires) {
				via := callee.Fn.Name()
				if prior := cs.Acquires[key].Via; prior != "" {
					via += viaSep + prior
				}
				// A direct acquisition (Via "") always stands.
				if have, ok := out.acquires[key]; !ok || (have.Via != "" && viaHops(via) < viaHops(have.Via)) {
					out.acquires[key] = LockSite{Pos: c.pos, Via: via}
				}
			}
			// Callee-internal edges also propagate (they are global facts);
			// the check reads them from each function's summary, so nothing
			// to do here — lockorder.go unions all summaries.
		}
	}
	if len(out.acquires) == 0 {
		out.acquires = nil
	}
	sort.Slice(out.edges, func(i, j int) bool {
		a, b := out.edges[i], out.edges[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return a.FromPos < b.FromPos
	})
	return out
}

// viaSep joins the callee names of a LockSite.Via chain.
const viaSep = " → "

// viaHops counts the calls on a non-empty Via chain.
func viaHops(via string) int { return strings.Count(via, viaSep) + 1 }

func sortedKeys(m map[string]LockSite) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// inDefer reports whether n sits inside a DeferStmt within body.
func inDefer(body ast.Node, n ast.Node) bool {
	found := false
	ast.Inspect(body, func(m ast.Node) bool {
		if d, ok := m.(*ast.DeferStmt); ok {
			if d.Pos() <= n.Pos() && n.Pos() <= d.End() {
				found = true
			}
			return false
		}
		return true
	})
	return found
}

// syncMethod2 is syncMethod without a Pass (summaries run before passes).
func syncMethod2(info *types.Info, call *ast.CallExpr, name string) ast.Expr {
	return methodCall(info, call, "sync", name)
}

// lockKey renders a mutex receiver as a load-global identity: a struct field
// becomes "pkgname.Type.field" (so every instance of fleet.Manager shares
// one node in the lock graph), a package-level var "pkgname.var". Local
// mutexes and receivers the scheme cannot name return "" and stay out of the
// global graph.
func (prog *Program) lockKey(info *types.Info, recv ast.Expr) string {
	switch e := ast.Unparen(recv).(type) {
	case *ast.SelectorExpr:
		field := info.Uses[e.Sel]
		if field == nil {
			return ""
		}
		t := info.Types[e.X].Type
		if t == nil {
			return ""
		}
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok || named.Obj().Pkg() == nil {
			// Chained selector (s.pool.mu): qualify by the outermost named
			// type we can find.
			if inner, ok := ast.Unparen(e.X).(*ast.SelectorExpr); ok {
				if base := prog.lockKey(info, inner); base != "" {
					return base + "." + e.Sel.Name
				}
			}
			return ""
		}
		return named.Obj().Pkg().Name() + "." + named.Obj().Name() + "." + e.Sel.Name
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil {
			obj = info.Defs[e]
		}
		if obj == nil || obj.Pkg() == nil {
			return ""
		}
		// Package-level mutexes are global; locals are invisible to other
		// functions and excluded.
		if obj.Parent() == obj.Pkg().Scope() {
			return obj.Pkg().Name() + "." + obj.Name()
		}
	}
	return ""
}

// ---- wire-taint return facts ------------------------------------------------

// returnTaint classifies fi's results: tainted (some result carries a raw
// wire-read integer with no bounding comparison in the body) or bounded
// (wire-derived but compared). The taint machinery is shared with the
// wire-bounded-alloc check (wirealloc.go).
func (prog *Program) returnTaint(fi *FuncInfo) (tainted, bounded bool) {
	tt := prog.taintTable(fi.Pkg, fi.Decl.Body)
	walkSameGoroutine(fi.Decl.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			if !isIntExpr(fi.Pkg.Info, res) {
				continue
			}
			if !tt.taintedExpr(res) {
				continue
			}
			if tt.sanitizedExpr(res, ret.Pos()) {
				bounded = true
			} else {
				tainted = true
			}
		}
		return true
	})
	if tainted {
		bounded = false
	}
	return tainted, bounded
}

// isIntExpr reports whether e has a sized-integer type worth tracking
// (uint8/byte excluded: 255 of anything is not an interesting allocation).
func isIntExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	switch b.Kind() {
	case types.Int, types.Int16, types.Int32, types.Int64,
		types.Uint, types.Uint16, types.Uint32, types.Uint64, types.Uintptr:
		return true
	}
	return false
}

// ---- summary cache ----------------------------------------------------------

// summaryCacheFile is the on-disk shape of a -summary-cache file.
type summaryCacheFile struct {
	// Fingerprint hashes the exact file set (paths, sizes, mtimes) the
	// FileSet was built from; token.Pos offsets in Summaries are only
	// meaningful while it matches.
	Fingerprint string              `json:"fingerprint"`
	Summaries   map[string]*Summary `json:"summaries"`
}

// fingerprint hashes the loaded source file identities so a stale cache can
// never smuggle positions from a different parse.
func (prog *Program) fingerprint() string {
	var lines []string
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			tf := prog.Fset.File(f.Pos())
			if tf == nil {
				continue
			}
			st, err := os.Stat(tf.Name())
			if err != nil {
				lines = append(lines, fmt.Sprintf("%s|%s|unstattable", pkg.Path, tf.Name()))
				continue
			}
			lines = append(lines, fmt.Sprintf("%s|%s|%d|%d|%d",
				pkg.Path, tf.Name(), tf.Base(), st.Size(), st.ModTime().UnixNano()))
		}
	}
	sort.Strings(lines)
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return fmt.Sprintf("%x", sum)
}

// loadSummaryCache returns the cached table when the fingerprint matches,
// else nil (any unreadable or stale cache is silently recomputed).
func (prog *Program) loadSummaryCache(path string) map[*types.Func]*Summary {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var file summaryCacheFile
	if err := json.Unmarshal(data, &file); err != nil {
		return nil
	}
	if file.Fingerprint != prog.fingerprint() {
		return nil
	}
	byKey := map[string]*types.Func{}
	for fn := range prog.Funcs {
		byKey[funcKey(fn)] = fn
	}
	out := map[*types.Func]*Summary{}
	for key, sum := range file.Summaries {
		fn, ok := byKey[key]
		if !ok {
			return nil // cache disagrees about the function set
		}
		out[fn] = sum
	}
	if len(out) != len(prog.Funcs) {
		return nil
	}
	return out
}

// saveSummaryCache writes the table; failures are non-fatal (the cache is an
// optimization, not a source of truth).
func (prog *Program) saveSummaryCache(path string) {
	file := summaryCacheFile{Fingerprint: prog.fingerprint(), Summaries: map[string]*Summary{}}
	for fn, sum := range prog.summaries {
		file.Summaries[funcKey(fn)] = sum
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return
	}
	_ = os.WriteFile(path, data, 0o644)
}
