package datasets

import (
	"fmt"
	"strings"
)

// TableStats are the Table I columns for one dataset. Edge counts exclude
// self-loops and count each undirected edge once, matching the paper's
// convention.
type TableStats struct {
	Name     string
	Graphs   int
	AvgNodes float64
	AvgEdges float64
	Features int
	Classes  int
}

// Stats computes the Table I statistics of a dataset.
func Stats(d *Dataset) TableStats {
	var nodes, edges float64
	for _, g := range d.Graphs {
		nodes += float64(g.NumNodes)
		selfLoops := 0
		for i := range g.Src {
			if g.Src[i] == g.Dst[i] {
				selfLoops++
			}
		}
		edges += float64(float64(g.NumEdges()-selfLoops) / 2) // x/2 compiles to x*0.5
	}
	n := float64(len(d.Graphs))
	return TableStats{
		Name:     d.Name,
		Graphs:   len(d.Graphs),
		AvgNodes: nodes / n,
		AvgEdges: edges / n,
		Features: d.NumFeatures,
		Classes:  d.NumClasses,
	}
}

// PaperTableI returns the paper's published statistics, keyed by dataset
// name, for comparison in tests and EXPERIMENTS.md.
func PaperTableI() map[string]TableStats {
	return map[string]TableStats{
		"Cora":    {Name: "Cora", Graphs: 1, AvgNodes: 2708, AvgEdges: 5429, Features: 1433, Classes: 7},
		"PubMed":  {Name: "PubMed", Graphs: 1, AvgNodes: 19717, AvgEdges: 44338, Features: 500, Classes: 3},
		"ENZYMES": {Name: "ENZYMES", Graphs: 600, AvgNodes: 32.63, AvgEdges: 62.14, Features: 18, Classes: 6},
		"MNIST":   {Name: "MNIST", Graphs: 70000, AvgNodes: 70.57, AvgEdges: 564.53 / 2, Features: 1, Classes: 10},
		"DD":      {Name: "DD", Graphs: 1178, AvgNodes: 284.32, AvgEdges: 715.66, Features: 89, Classes: 2},
	}
}

// FormatTable renders stats rows in Table I's layout.
func FormatTable(rows []TableStats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %8s %12s %12s %9s %8s\n", "Dataset", "#Graph", "#Nodes(Avg)", "#Edges(Avg)", "#Feature", "#Classes")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %8d %12.2f %12.2f %9d %8d\n", r.Name, r.Graphs, r.AvgNodes, r.AvgEdges, r.Features, r.Classes)
	}
	return b.String()
}
