package tensor

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/parallel"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// intoInputs is the seeded operand set of the Into-kernel table. The shapes
// are odd and large enough that every parallel kernel splits seven ways:
// 389*257 elements is seven elemGrain chunks, 389 rows seven RowGrain(257)
// chunks.
type intoInputs struct {
	a, b       *Tensor // [389,257]
	rowv, colv *Tensor // [257], [389]
	narrow     *Tensor // [389,31], concatenated beside a
	table      *Tensor // [51,33], gathered from
	src        *Tensor // [4001,33], scattered into 51 rows
	idx        []int   // 4001 indices in [0,51), with repeats

	// The products' and aggregations' operands, drawn from their own stream
	// so the rows above keep theirs. K (300) and N (269) exceed the product
	// kernels' tiles and N is no multiple of a column strip.
	mmA, mmB, mmBad *Tensor // [97,300] with exact zeros and -0; [300,269]; mmB with NaN and ±Inf
	mmAT, mmBT      *Tensor // [300,97] and [269,300]
	aggX, aggW      *Tensor // [60,37] with -0 entries; one weight per arc
	aggS, aggD      []int   // arcs into 53 rows: duplicates, self-loops, unsorted, rows 45.. empty
	aggCSR          byDst   // (aggS, aggD) grouped by destination

	// The aggregation epilogue's operands: a bias per column of aggX and of
	// aggX75 (75 = 64 + 8 + 3 columns reach every strip width and the
	// scalar tail) and a scale per destination row, 0 on the empty rows as
	// DGL's inverse degree roots are.
	aggBias, aggBias75 *Tensor // [37], [75]
	aggScale           *Tensor // [53]
	aggX75             *Tensor // [60,75] with -0 entries
}

func newIntoInputs() *intoInputs {
	rng := NewRNG(20)
	in := &intoInputs{
		a:      rng.Randn(1, 389, 257),
		b:      rng.Randn(1, 389, 257),
		rowv:   rng.Randn(1, 257),
		colv:   rng.Randn(1, 389),
		narrow: rng.Randn(1, 389, 31),
		table:  rng.Randn(1, 51, 33),
		src:    rng.Randn(1, 4001, 33),
		idx:    make([]int, 4001),
	}
	for i := range in.idx {
		in.idx[i] = rng.IntN(51)
	}

	rng = NewRNG(33)
	negZero := math.Copysign(0, -1)
	in.mmA = rng.Randn(1, 97, 300)
	for i := range in.mmA.Data {
		switch rng.IntN(4) {
		case 0:
			in.mmA.Data[i] = 0
		case 1:
			in.mmA.Data[i] = negZero
		}
	}
	in.mmB = rng.Randn(1, 300, 269)
	in.mmBad = in.mmB.Clone()
	in.mmBad.Data[5*269+3] = math.NaN()
	in.mmBad.Data[150*269+268] = math.Inf(1)
	in.mmBad.Data[299*269] = math.Inf(-1)
	in.mmAT = rng.Randn(1, 300, 97)
	for i := 0; i < len(in.mmAT.Data); i += 3 {
		in.mmAT.Data[i] = negZero
	}
	in.mmBT = rng.Randn(1, 269, 300)

	in.aggX = rng.Randn(1, 60, 37)
	for i := 0; i < len(in.aggX.Data); i += 7 {
		in.aggX.Data[i] = negZero
	}
	for k := 0; k < 600; k++ {
		in.aggS = append(in.aggS, rng.IntN(60))
		in.aggD = append(in.aggD, rng.IntN(45))
	}
	for k := 0; k < 50; k++ { // duplicates of earlier arcs
		q := rng.IntN(600)
		in.aggS, in.aggD = append(in.aggS, in.aggS[q]), append(in.aggD, in.aggD[q])
	}
	for v := 0; v < 45; v += 2 { // self-loops
		in.aggS, in.aggD = append(in.aggS, v), append(in.aggD, v)
	}
	in.aggW = rng.Randn(1, len(in.aggS))
	for i := 0; i < len(in.aggW.Data); i += 11 {
		in.aggW.Data[i] = negZero
	}
	in.aggCSR = newByDst(53, in.aggS, in.aggD)

	in.aggBias = rng.Randn(1, 37)
	in.aggBias.Data[3] = negZero
	in.aggBias75 = rng.Randn(1, 75)
	in.aggScale = rng.Randn(1, 53)
	for v := 45; v < 53; v++ {
		in.aggScale.Data[v] = 0
	}
	in.aggX75 = rng.Randn(1, 60, 75)
	for i := 0; i < len(in.aggX75.Data); i += 5 {
		in.aggX75.Data[i] = negZero
	}
	return in
}

// aggEpilogue is the destination-row aggregation of x (weighted by w when
// not nil) over in.aggCSR with GCN's epilogue: row v times scale[v] when
// scale is not nil, plus bias, then ReLU when relu is set.
func (in *intoInputs) aggEpilogue(x *Tensor, w []float64, scale, bias *Tensor, relu bool) []*Tensor {
	c := in.aggCSR
	d := Full(math.NaN(), 53, x.Cols()) // fully overwritten
	ep := Epilogue{Bias: bias.Data, ReLU: relu}
	if scale != nil {
		ep.Scale = scale.Data
	}
	AggregateRowsInto(d, x, w, c.rowptr, c.col, c.eid, ep)
	return []*Tensor{d}
}

// intoCase is one kernel: run writes fresh destinations and returns them;
// inPlace holds one closure per aliasing its doc comment allows, each
// applying the kernel with dst being (a clone of) that operand.
type intoCase struct {
	name    string
	run     func() []*Tensor
	inPlace []func() *Tensor
}

func intoCases(in *intoInputs) []intoCase {
	a, b := in.a, in.b
	one := func(dst *Tensor) []*Tensor { return []*Tensor{dst} }
	unary := func(name string, k func(dst, t *Tensor)) intoCase {
		return intoCase{name,
			func() []*Tensor { d := NewLike(a); k(d, a); return one(d) },
			[]func() *Tensor{func() *Tensor { c := a.Clone(); k(c, c); return c }}}
	}
	binary := func(name string, k func(dst, a, b *Tensor)) intoCase {
		return intoCase{name,
			func() []*Tensor { d := NewLike(a); k(d, a, b); return one(d) },
			[]func() *Tensor{
				func() *Tensor { c := a.Clone(); k(c, c, b); return c },
				func() *Tensor { c := b.Clone(); k(c, a, c); return c },
			}}
	}
	// grad kernels take (dst, dg, x|y) and may alias dg, played here by a.
	grad := func(name string, k func(dst, dg, x *Tensor)) intoCase {
		return intoCase{name,
			func() []*Tensor { d := NewLike(a); k(d, a, b); return one(d) },
			[]func() *Tensor{func() *Tensor { c := a.Clone(); k(c, c, b); return c }}}
	}
	rowwise := func(name string, v *Tensor, k func(dst, m, v *Tensor)) intoCase {
		return intoCase{name,
			func() []*Tensor { d := NewLike(a); k(d, a, v); return one(d) },
			[]func() *Tensor{func() *Tensor { c := a.Clone(); k(c, c, v); return c }}}
	}
	return []intoCase{
		binary("AddInto", AddInto),
		binary("SubInto", SubInto),
		binary("MulInto", MulInto),
		binary("DivInto", DivInto),
		{"DivGradBInto",
			func() []*Tensor { d := NewLike(a); DivGradBInto(d, in.upstream(), a, b); return one(d) },
			[]func() *Tensor{func() *Tensor { c := in.upstream(); DivGradBInto(c, c, a, b); return c }}},
		unary("ScaleInto", func(dst, t *Tensor) { ScaleInto(dst, t, 1.7) }),
		unary("NegInto", NegInto),
		unary("AddScalarInto", func(dst, t *Tensor) { AddScalarInto(dst, t, -0.3) }),
		unary("SquareInto", SquareInto),
		unary("SigmoidInto", SigmoidInto),
		unary("ReLUInto", ReLUInto),
		unary("LeakyReLUInto", func(dst, t *Tensor) { LeakyReLUInto(dst, t, 0.2) }),
		unary("ELUInto", func(dst, t *Tensor) { ELUInto(dst, t, 1.3) }),
		grad("SquareGradInto", SquareGradInto),
		grad("SigmoidGradInto", SigmoidGradInto),
		grad("ReLUGradInto", ReLUGradInto),
		grad("LeakyReLUGradInto", func(dst, dg, x *Tensor) { LeakyReLUGradInto(dst, dg, x, 0.2) }),
		grad("ELUGradInto", func(dst, dg, y *Tensor) { ELUGradInto(dst, dg, y, 1.3) }),
		rowwise("AddRowVectorInto", in.rowv, AddRowVectorInto),
		rowwise("MulRowVectorInto", in.rowv, MulRowVectorInto),
		rowwise("MulColVectorInto", in.colv, MulColVectorInto),
		{"MulSumColsInto", func() []*Tensor { d := New(a.Rows()); MulSumColsInto(d, a, b); return one(d) }, nil},
		{"GatherRowsInto", func() []*Tensor {
			d := New(len(in.idx), in.table.Cols())
			GatherRowsInto(d, in.table, in.idx)
			return one(d)
		}, nil},
		{"ScatterAddRowsInto", func() []*Tensor {
			d := Full(math.NaN(), in.table.Rows(), in.src.Cols()) // the kernel clears dst itself
			ScatterAddRowsInto(d, in.src, in.idx)
			return one(d)
		}, nil},
		{"ConcatColsInto", func() []*Tensor {
			d := New(a.Rows(), a.Cols()+in.narrow.Cols())
			ConcatColsInto(d, a, in.narrow)
			return one(d)
		}, nil},
		{"SplitColsInto", func() []*Tensor {
			ds := []*Tensor{New(a.Rows(), 100), New(a.Rows(), 157)}
			SplitColsInto(ds, a)
			return ds
		}, nil},
		{"SumRowsInto", func() []*Tensor {
			d := Full(math.NaN(), a.Cols())
			SumRowsInto(d, a)
			return one(d)
		}, nil},
		{"SumColsInto", func() []*Tensor { d := New(a.Rows()); SumColsInto(d, a); return one(d) }, nil},
		{"MeanStdInto", func() []*Tensor {
			mean, std := Full(math.NaN(), a.Cols()), Full(math.NaN(), a.Cols())
			MeanStdInto(mean, std, a)
			return []*Tensor{mean, std}
		}, nil},
		{"MatMulInto", func() []*Tensor {
			d := Full(math.NaN(), 97, 269) // fully overwritten
			MatMulInto(d, in.mmA, in.mmB)
			return one(d)
		}, nil},
		{"MatMulInto nonfinite b", func() []*Tensor {
			d := Full(math.NaN(), 97, 269)
			MatMulInto(d, in.mmA, in.mmBad)
			return one(d)
		}, nil},
		{"MatMulTAInto", func() []*Tensor {
			d := Full(math.NaN(), 97, 269)
			MatMulTAInto(d, in.mmAT, in.mmB)
			return one(d)
		}, nil},
		{"MatMulTBInto", func() []*Tensor {
			d := Full(math.NaN(), 97, 269)
			MatMulTBInto(d, in.mmA, in.mmBT)
			return one(d)
		}, nil},
		{"GSpMMSumInto", func() []*Tensor {
			d := Full(math.NaN(), 53, 37)
			GSpMMSumInto(d, in.aggX, in.aggCSR.rowptr, in.aggCSR.col)
			return one(d)
		}, nil},
		{"GatherScaleScatterInto", func() []*Tensor {
			d := Full(math.NaN(), 53, 37)
			GatherScaleScatterInto(d, in.aggX, nil, in.aggS, in.aggD, in.aggCSR, Epilogue{})
			return one(d)
		}, nil},
		{"GatherScaleScatterInto weighted", func() []*Tensor {
			d := Full(math.NaN(), 53, 37)
			GatherScaleScatterInto(d, in.aggX, in.aggW, in.aggS, in.aggD, in.aggCSR, Epilogue{})
			return one(d)
		}, nil},
		{"GSpMMWeightedSumInto", func() []*Tensor { // DGL's weighted GSpMM, since folded into AggregateRowsInto
			d := Full(math.NaN(), 53, 37)
			AggregateRowsInto(d, in.aggX, in.aggW.Data, in.aggCSR.rowptr, in.aggCSR.col, in.aggCSR.eid, Epilogue{})
			return one(d)
		}, nil},
		// GCN's layer epilogues: PyG's weighted sum + bias (+ ReLU between
		// layers), DGL's plain sum × inverse degree root + bias (+ ReLU).
		{"AggregateRowsInto weighted bias ReLU", func() []*Tensor {
			return in.aggEpilogue(in.aggX, in.aggW.Data, nil, in.aggBias, true)
		}, nil},
		{"AggregateRowsInto weighted bias", func() []*Tensor {
			return in.aggEpilogue(in.aggX, in.aggW.Data, nil, in.aggBias, false)
		}, nil},
		{"AggregateRowsInto scale bias ReLU", func() []*Tensor {
			return in.aggEpilogue(in.aggX, nil, in.aggScale, in.aggBias, true)
		}, nil},
		{"AggregateRowsInto scale bias", func() []*Tensor {
			return in.aggEpilogue(in.aggX, nil, in.aggScale, in.aggBias, false)
		}, nil},
		{"AggregateRowsInto weighted bias ReLU 75 wide", func() []*Tensor {
			return in.aggEpilogue(in.aggX75, in.aggW.Data, nil, in.aggBias75, true)
		}, nil},
		{"AggregateRowsInto scale bias ReLU 75 wide", func() []*Tensor {
			return in.aggEpilogue(in.aggX75, nil, in.aggScale, in.aggBias75, true)
		}, nil},
	}
}

// byDst is a by-destination CSR of arcs s[k] → d[k] built by a stable
// counting sort: row v lists the arcs into v in increasing k.
type byDst struct{ rowptr, col, eid []int }

func newByDst(n int, s, d []int) byDst {
	c := byDst{make([]int, n+1), make([]int, len(s)), make([]int, len(s))}
	for _, v := range d {
		c.rowptr[v+1]++
	}
	for v := 0; v < n; v++ {
		c.rowptr[v+1] += c.rowptr[v]
	}
	next := append([]int(nil), c.rowptr[:n]...)
	for k, v := range d {
		c.col[next[v]], c.eid[next[v]] = s[k], k
		next[v]++
	}
	return c
}

func (c byDst) ByDst() (rowptr, col, eid []int) { return c.rowptr, c.col, c.eid }

// upstream is DivGradBInto's incoming gradient: a fresh [389,257] tensor
// distinct from both quotient operands.
func (in *intoInputs) upstream() *Tensor {
	dg := NewLike(in.a)
	MulRowVectorInto(dg, in.b, in.rowv)
	return dg
}

// digest renders a kernel's outputs as shape plus the SHA-256 of the float64
// bit patterns: equal lines are bit-equal tensors.
func digest(name string, outs []*Tensor) string {
	var sb strings.Builder
	for i, t := range outs {
		h := sha256.New()
		var w [8]byte
		for _, v := range t.Data {
			binary.LittleEndian.PutUint64(w[:], math.Float64bits(v))
			h.Write(w[:])
		}
		fmt.Fprintf(&sb, "%s[%d] %v %x\n", name, i, t.Shape(), h.Sum(nil))
	}
	return sb.String()
}

// TestIntoKernelsMatchGolden holds every elementwise, row-broadcast, row-move
// and reduce Into kernel — the only implementation of each op since the
// allocating forms became New + Into — to a golden file of output bit
// patterns, at worker counts 1, 2 and 7. The checked-in file was generated at
// the last commit that still carried a second loop body per op (8f246c0),
// from those allocating forms (the Map-closure activations, the inline-loop
// arithmetic, rows and reductions; DivGradBInto from Mul(Zip(..), a) and
// MulSumColsInto from SumCols(Mul(a, b)), the compositions their comments
// name; the other grad kernels from themselves), so it pins the collapse:
// range kernels ≡ closure kernels, bit for bit. The rows from MatMulInto on
// were appended at 7609054, from the accumulate-in-memory product and
// aggregation kernels, to pin their register-accumulating rewrite. The
// AggregateRowsInto epilogue rows were appended from the aggregation
// followed by the separate MulColVectorInto, AddRowVectorInto and ReLUInto
// passes, to pin the fused epilogue that replaced them. Each
// aliasing a kernel's comment allows is applied in place and must give the
// same bits. Both strip paths, AVX2 and pure Go, must match the file.
func TestIntoKernelsMatchGolden(t *testing.T) {
	forEachStripPath(t, testIntoKernelsMatchGolden)
}

func testIntoKernelsMatchGolden(t *testing.T) {
	in := newIntoInputs()
	cases := intoCases(in)
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)

	var got strings.Builder
	for _, tc := range cases {
		var ref []*Tensor
		var want string
		for _, w := range []int{1, 2, 7} {
			parallel.SetWorkers(w)
			outs := tc.run()
			if d := digest(tc.name, outs); w == 1 {
				ref, want = outs, d
				got.WriteString(d)
			} else if d != want {
				t.Errorf("%s: %d workers\n%swant\n%s", tc.name, w, d, want)
			}
			for i, f := range tc.inPlace {
				if c := f(); !bitIdentical(c, ref[0]) {
					t.Errorf("%s: in place on operand %d at %d workers differs (max diff %g)",
						tc.name, i, w, MaxAbsDiff(c, ref[0]))
				}
			}
		}
	}

	path := filepath.Join("testdata", "into_kernels.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("Into kernels differ from %s (rerun with -update only if the change is intended)\ngot:\n%swant:\n%s",
			path, got.String(), want)
	}
}

// TestMulRowVectorIntoAndSumColsInto gives the two Into kernels that had no
// caller and no test hand-checked values and their mismatch panics.
func TestMulRowVectorIntoAndSumColsInto(t *testing.T) {
	m := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	dst := New(2, 3)
	MulRowVectorInto(dst, m, FromSlice([]float64{10, 20, 30}, 3))
	if want := FromSlice([]float64{10, 40, 90, 40, 100, 180}, 2, 3); !bitIdentical(dst, want) {
		t.Fatalf("MulRowVectorInto = %v, want %v", dst.Data, want.Data)
	}
	sums := Full(-1, 2) // fully overwritten, not accumulated into
	SumColsInto(sums, m)
	if sums.Data[0] != 6 || sums.Data[1] != 15 {
		t.Fatalf("SumColsInto = %v, want [6 15]", sums.Data)
	}
	for name, f := range map[string]func(){
		"MulRowVectorInto vector width": func() { MulRowVectorInto(dst, m, New(2)) },
		"MulRowVectorInto dst shape":    func() { MulRowVectorInto(New(3, 2), m, New(3)) },
		"SumColsInto dst size":          func() { SumColsInto(New(3), m) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s mismatch did not panic", name)
				}
			}()
			f()
		}()
	}
}

// TestMatMulIntoInlineZeroAllocs: on the inline path — one worker, or a
// product below one grain at seven — MatMulInto keeps its term lists on the
// stack, for every K (here 300, past the K tile), so it allocates nothing,
// on either strip path.
func TestMatMulIntoInlineZeroAllocs(t *testing.T) {
	if RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	forEachStripPath(t, testMatMulIntoInlineZeroAllocs)
}

func testMatMulIntoInlineZeroAllocs(t *testing.T) {
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	in := newIntoInputs()
	small, smallB := NewRNG(1).Randn(1, 3, 300), NewRNG(2).Randn(1, 300, 5)
	for _, c := range []struct {
		name    string
		a, b    *Tensor
		workers []int
	}{
		{"97x300x269", in.mmA, in.mmB, []int{1}},
		{"97x300x269 nonfinite b", in.mmA, in.mmBad, []int{1}},
		{"3x300x5", small, smallB, []int{1, 7}},
	} {
		dst := New(c.a.Rows(), c.b.Cols())
		for _, w := range c.workers {
			parallel.SetWorkers(w)
			if a := testing.AllocsPerRun(5, func() { MatMulInto(dst, c.a, c.b) }); a != 0 {
				t.Errorf("%s at %d workers: %v allocs per call on the inline path, want 0", c.name, w, a)
			}
		}
	}
}

// TestAggregateRowsIntoInlineZeroAllocs: the destination-row aggregation,
// plain and weighted, with and without an epilogue, allocates nothing on the
// inline path, on either strip path.
func TestAggregateRowsIntoInlineZeroAllocs(t *testing.T) {
	if RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	forEachStripPath(t, testAggregateRowsIntoInlineZeroAllocs)
}

func testAggregateRowsIntoInlineZeroAllocs(t *testing.T) {
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	in := newIntoInputs()
	c := in.aggCSR
	dst := New(53, in.aggX.Cols())
	for _, w := range [][]float64{nil, in.aggW.Data} {
		for _, ep := range []Epilogue{{}, {Scale: in.aggScale.Data, Bias: in.aggBias.Data, ReLU: true}} {
			if a := testing.AllocsPerRun(20, func() { AggregateRowsInto(dst, in.aggX, w, c.rowptr, c.col, c.eid, ep) }); a != 0 {
				t.Errorf("weighted=%v epilogue=%v: %v allocs per call on the inline path, want 0", w != nil, ep.ReLU, a)
			}
		}
	}
	parallel.SetWorkers(7) // three arcs into two rows: under one grain
	tiny := newByDst(2, []int{0, 1, 1}, []int{1, 0, 1})
	small := New(2, in.aggX.Cols())
	if a := testing.AllocsPerRun(20, func() { AggregateRowsInto(small, in.aggX, nil, tiny.rowptr, tiny.col, tiny.eid, Epilogue{}) }); a != 0 {
		t.Errorf("at 7 workers under one grain: %v allocs per call, want 0", a)
	}
}
