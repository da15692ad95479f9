package boot

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"testing"

	"repro/internal/fleet"
)

// flagDefaults reads the default values of the flag.String / flag.Float64
// registrations in a main.go, keyed by flag name.
func flagDefaults(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) < 2 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
			return true
		}
		name, ok := call.Args[0].(*ast.BasicLit)
		def, ok2 := call.Args[1].(*ast.BasicLit)
		if !ok || !ok2 || name.Kind != token.STRING {
			return true
		}
		key, _ := strconv.Unquote(name.Value)
		val := def.Value
		if def.Kind == token.STRING {
			val, _ = strconv.Unquote(def.Value)
		}
		out[key] = val
		return true
	})
	return out
}

// TestBinariesAgreeOnDefaultModelHash: a coordinator refuses any worker whose
// model hash differs from its own, so gnnserve and gnnworker started with no
// flags must serve the same weights. Each binary's own flag defaults are read
// from its source and run through the shared boot path.
func TestBinariesAgreeOnDefaultModelHash(t *testing.T) {
	hashes := map[string][32]byte{}
	for _, bin := range []string{"gnnserve", "gnnworker"} {
		def := flagDefaults(t, "../../"+bin+"/main.go")
		for _, name := range []string{"model", "framework", "dataset", "scale", "checkpoint", "checkpoint-dir"} {
			if _, ok := def[name]; !ok {
				t.Fatalf("%s registers no -%s flag with a literal default", bin, name)
			}
		}
		be, err := Backend(def["framework"])
		if err != nil {
			t.Fatalf("%s: %v", bin, err)
		}
		scale, err := strconv.ParseFloat(def["scale"], 64)
		if err != nil {
			t.Fatalf("%s -scale default: %v", bin, err)
		}
		d, err := Dataset(def["dataset"], scale)
		if err != nil {
			t.Fatalf("%s: %v", bin, err)
		}
		m := NewModel(def["model"], be, d)
		if _, err := LoadWeights(m, def["checkpoint"], def["checkpoint-dir"]); err != nil {
			t.Fatalf("%s: %v", bin, err)
		}
		if hashes[bin], err = fleet.ModelHash(m.Params()); err != nil {
			t.Fatalf("%s: %v", bin, err)
		}
	}
	if hashes["gnnserve"] != hashes["gnnworker"] {
		t.Fatalf("default gnnserve serves model %s, default gnnworker %s: the fleet could not connect",
			fleet.HashString(hashes["gnnserve"]), fleet.HashString(hashes["gnnworker"]))
	}
}
