package analysis

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// The lock-order check builds the load-global lock-acquisition graph from
// the fixpoint summaries and reports its cycles. Nodes are type-qualified
// lock identities ("fleet.Manager.lifeMu" — every instance of a type shares
// one node); an edge A→B means some function acquires B, directly or via a
// callee, while its textual model says A is held. Two functions that nest
// the same pair of mutexes in opposite orders create a cycle: each can hold
// the lock the other needs, and under the right schedule both wait forever.
// That is the classic AB/BA deadlock, and unlike lock-balance's per-scope
// discipline it is invisible to any per-function walk — the two halves of
// the cycle usually live in different functions, often different packages.
//
// Each strongly connected component with two or more locks produces exactly
// one report, naming a concrete cycle chain with every acquisition site
// (file:line and function) so both halves of the inversion are on the
// table. Self-edges are dropped before cycle-finding: the type-qualified
// key cannot tell r1.mu from r2.mu, so "A while A" is instance ambiguity,
// not evidence.
var lockOrderCheck = &Check{
	Name: "lock-order",
	Doc:  "global lock-acquisition graph has a cycle (potential AB/BA deadlock)",
	Run:  runLockOrder,
}

func runLockOrder(pass *Pass) {
	for _, rep := range pass.Prog.lockCycleReports() {
		// The run is global but suppression and attribution are per package:
		// each report belongs to the pass owning its anchor position.
		if pass.Prog.ownerOf(rep.pos) != pass.Pkg {
			continue
		}
		pass.Reportf(rep.pos, "%s", rep.msg)
	}
}

// progReport is one memoized program-wide finding.
type progReport struct {
	pos token.Pos
	msg string
}

// lockCycleReports computes (once per Program) the cycle reports of the
// global lock graph.
func (prog *Program) lockCycleReports() []progReport {
	if prog.lockReportsDone {
		return prog.lockReports
	}
	prog.lockReportsDone = true

	// Union every function's observed edges; keep the smallest-position
	// witness per (from, to) so reports are stable.
	type edgeKey struct{ from, to string }
	witness := map[edgeKey]LockEdge{}
	for _, fi := range prog.sortedFuncs() {
		sum := prog.summaries[fi.Fn]
		if sum == nil {
			continue
		}
		for _, e := range sum.LockEdges {
			k := edgeKey{e.From, e.To}
			if have, ok := witness[k]; !ok || e.FromPos < have.FromPos {
				witness[k] = e
			}
		}
	}
	adj := map[string][]string{}
	nodes := map[string]bool{}
	for k := range witness {
		adj[k.from] = append(adj[k.from], k.to)
		nodes[k.from], nodes[k.to] = true, true
	}
	sorted := make([]string, 0, len(nodes))
	for n := range nodes {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	for _, n := range sorted {
		sort.Strings(adj[n])
	}

	for _, scc := range tarjanSCC(sorted, adj) {
		if len(scc) < 2 {
			continue
		}
		cycle := cycleChain(scc, adj)
		if len(cycle) == 0 {
			continue
		}
		var parts []string
		var anchor token.Pos
		for i := 0; i < len(cycle); i++ {
			from, to := cycle[i], cycle[(i+1)%len(cycle)]
			e := witness[edgeKey{from, to}]
			site := prog.Fset.Position(e.FromPos)
			hop := fmt.Sprintf("%s held at %s:%d in %s while acquiring %s",
				from, shortPath(site.Filename), site.Line, e.Func, to)
			if e.Via != "" {
				hop += " via " + e.Via
			}
			parts = append(parts, hop)
			if !anchor.IsValid() || e.FromPos < anchor {
				anchor = e.FromPos
			}
		}
		prog.lockReports = append(prog.lockReports, progReport{
			pos: anchor,
			msg: fmt.Sprintf("lock-order cycle (potential deadlock): %s", strings.Join(parts, "; ")),
		})
	}
	sort.Slice(prog.lockReports, func(i, j int) bool {
		return prog.lockReports[i].pos < prog.lockReports[j].pos
	})
	return prog.lockReports
}

// cycleChain extracts one concrete cycle inside a strongly connected
// component: walk from the smallest node through in-SCC edges until a node
// repeats, then return the loop.
func cycleChain(scc []string, adj map[string][]string) []string {
	in := map[string]bool{}
	for _, n := range scc {
		in[n] = true
	}
	start := scc[0] // scc slices come out of tarjanSCC sorted
	path := []string{start}
	seen := map[string]int{start: 0}
	cur := start
	for {
		next := ""
		for _, t := range adj[cur] {
			if in[t] {
				next = t
				break
			}
		}
		if next == "" {
			return nil
		}
		if i, ok := seen[next]; ok {
			return path[i:]
		}
		seen[next] = len(path)
		path = append(path, next)
		cur = next
	}
}

// tarjanSCC returns the strongly connected components of the graph, each
// sorted, in deterministic order.
func tarjanSCC(nodes []string, adj map[string][]string) [][]string {
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	var sccs [][]string
	next := 0

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sort.Strings(scc)
			sccs = append(sccs, scc)
		}
	}
	for _, v := range nodes {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}
	return sccs
}
