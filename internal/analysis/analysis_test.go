package analysis_test

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
)

var update = flag.Bool("update", false, "rewrite golden files")

// loadFixtures loads packages from the testdata/src fixture module.
func loadFixtures(t *testing.T, patterns ...string) []*analysis.Package {
	t.Helper()
	pkgs, err := analysis.Load("testdata/src", patterns...)
	if err != nil {
		t.Fatalf("load %v: %v", patterns, err)
	}
	return pkgs
}

// checkByName resolves one registered check.
func checkByName(t *testing.T, name string) *analysis.Check {
	t.Helper()
	for _, c := range analysis.All() {
		if c.Name == name {
			return c
		}
	}
	t.Fatalf("no check named %q", name)
	return nil
}

// render flattens diagnostics to one line each, with paths relative to the
// fixture root so goldens are machine-independent.
func render(t *testing.T, ds []analysis.Diagnostic) string {
	t.Helper()
	root, err := filepath.Abs("testdata/src")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, d := range ds {
		rel, err := filepath.Rel(root, d.File)
		if err != nil {
			rel = d.File
		}
		d.File = filepath.ToSlash(rel)
		sb.WriteString(d.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestCheckGolden runs each check over its fixture packages and compares
// the active diagnostics against a golden file. The fixtures pair positive
// (Bad*) and negative (Good*) cases, so a check that goes quiet on a Bad
// case or fires on a Good one both show up as golden drift. Regenerate with
// `go test ./internal/analysis -run TestCheckGolden -update`.
func TestCheckGolden(t *testing.T) {
	cases := []struct {
		check    string
		patterns []string
	}{
		{"determinism", []string{"./determ", "./train"}},
		{"defer-close-exit", []string{"./deferclose"}},
		{"atomic-rename", []string{"./atomicrename"}},
		{"span-end", []string{"./spanend"}},
		{"trace-propagation", []string{"./traceprop"}},
		{"lock-balance", []string{"./lockbalance"}},
		{"metric-names", []string{"./metricnames"}},
		{"use-after-release", []string{"./usereleased"}},
		// The interprocedural checks: goroutine-leak includes the
		// cross-package pair, where the leak is only visible through the
		// summary layer.
		{"goroutine-leak", []string{"./goleak", "./goleakdep", "./goleakpipe"}},
		{"ctx-propagation", []string{"./ctxprop"}},
		{"lock-order", []string{"./lockorder"}},
		{"wire-bounded-alloc", []string{"./wirealloc"}},
	}
	for _, tc := range cases {
		t.Run(tc.check, func(t *testing.T) {
			pkgs := loadFixtures(t, tc.patterns...)
			result := analysis.Run(pkgs, []*analysis.Check{checkByName(t, tc.check)})
			got := render(t, result.Diagnostics)
			if got == "" {
				t.Fatalf("check %s produced no findings over its positive fixtures", tc.check)
			}
			goldenPath := filepath.Join("testdata", "golden", tc.check+".golden")
			if *update {
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("read golden (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics drifted from %s\n--- got ---\n%s--- want ---\n%s", goldenPath, got, want)
			}
			// Negative fixtures: no finding may point at a Good* function's
			// line range — approximated by requiring every golden line to
			// mention a file that also contains Bad cases, and asserting
			// directly that no diagnostic message names a Good symbol.
			for _, d := range result.Diagnostics {
				if strings.Contains(d.Message, "Good") {
					t.Errorf("finding fired inside a negative (Good*) fixture: %s", d)
				}
			}
		})
	}
}

// TestNegativeFixturesStayQuiet pins the negative halves down harder than
// the golden files can: re-running every check over a fixture package must
// produce findings only at lines occupied by Bad* functions.
func TestNegativeFixturesStayQuiet(t *testing.T) {
	pkgs := loadFixtures(t, "./...")
	result := analysis.Run(pkgs, analysis.All())
	for _, d := range result.Diagnostics {
		src, err := os.ReadFile(d.File)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(src), "\n")
		// Walk upward to the enclosing func declaration.
		name := ""
		for i := d.Line - 1; i >= 0 && i < len(lines); i-- {
			if strings.HasPrefix(lines[i], "func ") {
				name = lines[i]
				break
			}
		}
		if strings.Contains(name, "Good") {
			t.Errorf("finding inside negative fixture %q: %s", strings.TrimSpace(name), d)
		}
	}
}

// TestAllowDirectives verifies suppression: the allowed fixture has two
// sanctioned findings (own-line and trailing "all" forms) and one real one
// whose directive names the wrong check.
func TestAllowDirectives(t *testing.T) {
	pkgs := loadFixtures(t, "./allowed")
	result := analysis.Run(pkgs, analysis.All())
	if len(result.Suppressed) != 2 {
		t.Errorf("suppressed = %d findings, want 2:\n%s", len(result.Suppressed), render(t, result.Suppressed))
	}
	if len(result.Diagnostics) != 1 {
		t.Fatalf("active = %d findings, want 1 (the wrong-name directive):\n%s",
			len(result.Diagnostics), render(t, result.Diagnostics))
	}
	if d := result.Diagnostics[0]; d.Check != "lock-balance" {
		t.Errorf("surviving finding is %s, want lock-balance", d.Check)
	}
}

// TestSelect covers the -checks spec grammar.
func TestSelect(t *testing.T) {
	all := analysis.All()
	names := func(cs []*analysis.Check) string {
		var ns []string
		for _, c := range cs {
			ns = append(ns, c.Name)
		}
		return strings.Join(ns, ",")
	}
	t.Run("empty means all", func(t *testing.T) {
		got, err := analysis.Select("  ")
		if err != nil || len(got) != len(all) {
			t.Fatalf("Select(blank) = %d checks, err %v; want %d", len(got), err, len(all))
		}
	})
	t.Run("include keeps registry order", func(t *testing.T) {
		got, err := analysis.Select("span-end,determinism")
		if err != nil {
			t.Fatal(err)
		}
		if names(got) != "determinism,span-end" {
			t.Errorf("Select include = %s, want determinism,span-end", names(got))
		}
	})
	t.Run("exclude", func(t *testing.T) {
		got, err := analysis.Select("-metric-names")
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(all)-1 || strings.Contains(names(got), "metric-names") {
			t.Errorf("Select exclude = %s", names(got))
		}
	})
	t.Run("mixed is an error", func(t *testing.T) {
		if _, err := analysis.Select("determinism,-span-end"); err == nil {
			t.Error("Select(mixed) succeeded, want error")
		}
	})
	t.Run("unknown is an error", func(t *testing.T) {
		if _, err := analysis.Select("nope"); err == nil {
			t.Error("Select(unknown) succeeded, want error")
		}
	})
	t.Run("all disabled is an error", func(t *testing.T) {
		spec := ""
		for _, c := range all {
			spec += "-" + c.Name + ","
		}
		if _, err := analysis.Select(spec); err == nil {
			t.Error("Select(everything disabled) succeeded, want error")
		}
	})
}

// TestRepoIsClean is the self-test the CI gnnvet step mirrors: every check
// over the real module must report zero active findings — the shipped tree
// stays gnnvet-clean, with sanctioned sites visible in the suppressed tally.
func TestRepoIsClean(t *testing.T) {
	pkgs, err := analysis.Load("../..", "./...")
	if err != nil {
		t.Fatalf("load repo: %v", err)
	}
	result := analysis.Run(pkgs, analysis.All())
	for _, d := range result.Diagnostics {
		t.Errorf("repo finding: %s", d)
	}
	t.Logf("repo: %d packages, %d findings suppressed by //gnnvet:allow",
		len(pkgs), len(result.Suppressed))
	if len(result.Suppressed) == 0 {
		t.Error("expected at least one sanctioned //gnnvet:allow site in the tree")
	}
}

// TestDeterministicOutput pins byte-for-byte reproducibility: two
// independent loads and runs over the whole fixture tree — fresh FileSets,
// fresh type-checker universes, fresh summary fixpoints — must render the
// identical byte stream, active and suppressed alike. Any map-order leak in
// the call graph, summary propagation, or cycle reporting shows up here as
// a diff.
func TestDeterministicOutput(t *testing.T) {
	run := func() string {
		pkgs := loadFixtures(t, "./...")
		r := analysis.Run(pkgs, analysis.All())
		return render(t, r.Diagnostics) + "-- suppressed --\n" + render(t, r.Suppressed)
	}
	first, second := run(), run()
	if first != second {
		t.Errorf("two identical runs rendered different bytes\n--- first ---\n%s--- second ---\n%s", first, second)
	}
}

// TestSummaryCache verifies the fixpoint cache round-trip: a cold run
// writes the summary table, a second run over an unchanged tree restores it
// (CacheHit) and reports the same diagnostics byte for byte.
func TestSummaryCache(t *testing.T) {
	cache := filepath.Join(t.TempDir(), "summaries.json")
	patterns := []string{"./goleak", "./goleakdep", "./goleakpipe", "./wirealloc", "./lockorder"}

	pkgs := loadFixtures(t, patterns...)
	cold := analysis.BuildProgram(pkgs)
	cold.Summarize(cache)
	if cold.CacheHit {
		t.Fatal("cold Summarize claimed a cache hit with no cache file on disk")
	}
	if _, err := os.Stat(cache); err != nil {
		t.Fatalf("cold Summarize left no cache file: %v", err)
	}
	want := analysis.RunWithCache(pkgs, analysis.All(), cache)

	pkgs2 := loadFixtures(t, patterns...)
	warm := analysis.BuildProgram(pkgs2)
	warm.Summarize(cache)
	if !warm.CacheHit {
		t.Fatal("warm Summarize recomputed instead of hitting the cache")
	}
	got := analysis.RunWithCache(pkgs2, analysis.All(), cache)
	if render(t, got.Diagnostics) != render(t, want.Diagnostics) {
		t.Errorf("cached run drifted\n--- cold ---\n%s--- warm ---\n%s",
			render(t, want.Diagnostics), render(t, got.Diagnostics))
	}
}

// TestSummarizeTerminatesOnDecorator pins the fixpoint's convergence on a
// type that implements a load-owned interface and calls the same method on a
// wrapped value of it. The decorator is one of its own callees, so a lock
// site whose via chain took one more hop per pass never settled and
// Summarize (hence gnnvet ./...) hung; the representative is now the
// shortest chain.
func TestSummarizeTerminatesOnDecorator(t *testing.T) {
	pkgs := loadFixtures(t, "./decorator")
	prog := analysis.BuildProgram(pkgs)
	done := make(chan struct{})
	go func() {
		defer close(done)
		prog.Summarize("")
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("Summarize did not reach a fixpoint on the decorator fixture within 20s")
	}
	sites := 0
	for fn := range prog.Funcs {
		if fn.Name() != "RunBatch" {
			continue
		}
		sites++
		site, ok := prog.SummaryOf(fn).Acquires["decorator.locked.mu"]
		if !ok {
			t.Errorf("%s: summary misses the wrapped value's lock", fn.FullName())
			continue
		}
		// Direct in locked.RunBatch, one hop from either decorator: the
		// wrapped value may be the base itself.
		if strings.Contains(fn.FullName(), "locked") {
			if site.Via != "" {
				t.Errorf("%s: direct acquisition reported via %q", fn.FullName(), site.Via)
			}
		} else if site.Via != "RunBatch" {
			t.Errorf("%s: lock reached via %q, want the one-hop chain \"RunBatch\"", fn.FullName(), site.Via)
		}
	}
	if sites != 3 {
		t.Fatalf("fixture declares %d RunBatch methods, want 3", sites)
	}
}
