package graph

import (
	"testing"
)

// decodeEdges turns raw fuzz bytes into an edge list: alternating bytes are
// src/dst endpoints, with src decoded as int8 so negative endpoints are
// exercised too.
func decodeEdges(data []byte) (src, dst []int) {
	for i := 0; i+1 < len(data); i += 2 {
		src = append(src, int(int8(data[i])))
		dst = append(dst, int(data[i+1]))
	}
	return src, dst
}

// FuzzGraphFromEdgeList feeds arbitrary edge lists — malformed endpoints,
// self-loops, duplicates, mismatched feature rows — through FromEdgeList.
// The contract under fuzz: never panic; reject invalid input with an error;
// and any accepted graph must survive every structural derivation the rest
// of the codebase performs on validated graphs.
func FuzzGraphFromEdgeList(f *testing.F) {
	f.Add(0, []byte{})
	f.Add(3, []byte{0, 1, 1, 2, 2, 0})       // triangle
	f.Add(2, []byte{0, 0, 0, 0, 1, 1})       // self-loops and duplicates
	f.Add(1, []byte{0, 7})                   // out-of-range destination
	f.Add(-4, []byte{0, 0})                  // negative node count
	f.Add(5, []byte{255, 0})                 // negative source (int8 -1)
	f.Add(300, []byte{44, 200, 200, 44, 13}) // odd trailing byte

	f.Fuzz(func(t *testing.T, numNodes int, data []byte) {
		// Keep the node count small enough that the derived-structure checks
		// below stay cheap, while preserving negatives and zero.
		numNodes %= 4097
		src, dst := decodeEdges(data)

		g, err := FromEdgeList(numNodes, src, dst, nil)
		if err != nil {
			return // rejected, not panicked: the contract held
		}
		if verr := g.Validate(); verr != nil {
			t.Fatalf("FromEdgeList accepted an invalid graph: %v", verr)
		}
		if g.NumEdges() != len(src) {
			t.Fatalf("edge count %d != input %d", g.NumEdges(), len(src))
		}

		var inSum float64
		for _, d := range g.InDegrees() {
			inSum += d
		}
		if int(inSum) != g.NumEdges() {
			t.Fatalf("in-degree sum %v != %d edges", inSum, g.NumEdges())
		}

		csr := BuildCSR(g.NumNodes, g.Src, g.Dst)
		if csr.RowPtr[g.NumNodes] != g.NumEdges() {
			t.Fatalf("CSR indexes %d arcs, graph has %d", csr.RowPtr[g.NumNodes], g.NumEdges())
		}

		if loops := g.WithSelfLoops(); loops.Validate() != nil {
			t.Fatal("WithSelfLoops broke validity")
		}
		if und := g.Undirected(); und.Validate() != nil {
			t.Fatal("Undirected broke validity")
		}

		// The feature path: correctly-sized rows must round-trip, a ragged
		// row must be rejected without panicking.
		if g.NumNodes > 0 && g.NumNodes <= 256 {
			width := 1 + len(data)%3
			x := make([][]float64, g.NumNodes)
			for i := range x {
				x[i] = make([]float64, width)
				for j := range x[i] {
					x[i][j] = float64((i + j) % 7)
				}
			}
			gx, err := FromEdgeList(numNodes, src, dst, x)
			if err != nil {
				t.Fatalf("well-formed features rejected: %v", err)
			}
			if gx.NumFeatures() != width {
				t.Fatalf("feature width %d, want %d", gx.NumFeatures(), width)
			}
			x[g.NumNodes-1] = x[g.NumNodes-1][:0]
			if _, err := FromEdgeList(numNodes, src, dst, x); err == nil && width > 0 {
				t.Fatal("ragged feature rows accepted")
			}
		}
	})
}

func TestFromEdgeListErrors(t *testing.T) {
	cases := []struct {
		name     string
		numNodes int
		src, dst []int
		x        [][]float64
	}{
		{"negative nodes", -1, nil, nil, nil},
		{"length mismatch", 2, []int{0}, nil, nil},
		{"src out of range", 2, []int{2}, []int{0}, nil},
		{"dst negative", 2, []int{0}, []int{-1}, nil},
		{"feature rows mismatch", 2, nil, nil, [][]float64{{1}}},
		{"ragged features", 2, nil, nil, [][]float64{{1, 2}, {3}}},
		{"empty feature rows", 1, nil, nil, [][]float64{{}}},
	}
	for _, c := range cases {
		if _, err := FromEdgeList(c.numNodes, c.src, c.dst, c.x); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
	g, err := FromEdgeList(3, []int{0, 1, 2, 2}, []int{1, 2, 0, 2}, [][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatalf("valid graph rejected: %v", err)
	}
	if g.NumNodes != 3 || g.NumEdges() != 4 || g.NumFeatures() != 2 {
		t.Fatalf("unexpected graph shape: %+v", g)
	}
}
