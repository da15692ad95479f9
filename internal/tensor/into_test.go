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
	return in
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
	}
}

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
// range kernels ≡ closure kernels, bit for bit. Each aliasing a kernel's
// comment allows is applied in place and must give the same bits.
func TestIntoKernelsMatchGolden(t *testing.T) {
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
