package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of one workload x end-to-end metric comparison.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

func readResults(path string) (resultsFile, error) {
	var f resultsFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Sets) == 0 {
		return f, fmt.Errorf("%s holds no result sets", path)
	}
	return f, nil
}

// compareFiles prints one row per workload x end-to-end metric for result
// files a (the base) and b, and reports whether any row is worse.
func compareFiles(w io.Writer, aPath, bPath string) (bool, error) {
	a, err := readResults(aPath)
	if err != nil {
		return false, err
	}
	b, err := readResults(bPath)
	if err != nil {
		return false, err
	}
	return compareResults(w, a, b), nil
}

// values collects one end-to-end metric of one workload across a file's sets.
func (f resultsFile) values(workload, name string) []float64 {
	var out []float64
	for _, set := range f.Sets {
		if m, ok := set.Workloads[workload].EndToEnd.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// disturbed reports whether any of the file's runs of the workload was
// flagged by the load generator.
func (f resultsFile) disturbed(workload string) bool {
	for _, set := range f.Sets {
		if set.Workloads[workload].PerLayer.Metrics["loadgen.disturbed"].Value != 0 {
			return true
		}
	}
	return false
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, quartiles taken as Python's statistics.quantiles(n=4)
// takes them; 0 for fewer than two values.
func quartileSpread(vals []float64) float64 {
	med := median(vals)
	if len(vals) < 2 || med == 0 {
		return 0
	}
	s := sortedCopy(vals)
	at := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4 // 1-based rank, exclusive method
		i := int(pos)
		switch {
		case i < 1:
			return s[0]
		case i >= len(s):
			return s[len(s)-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return (at(3) - at(1)) / med
}

// judge compares one metric's values on the two sides. worsening is the
// share of the base median by which b's median is worse (negative: better).
func judge(def metricDef, a, b []float64, disturbed bool) (verdict string, worsening float64) {
	base, changed := median(a), median(b)
	if base == 0 {
		return verdictUnresolved, 0
	}
	worsening = (changed - base) / base
	if def.Better == "higher" {
		worsening = -worsening
	}
	switch {
	case disturbed:
		return verdictUnresolved, worsening
	case len(a) > 1 && len(b) > 1 && (quartileSpread(a) > def.Bound || quartileSpread(b) > def.Bound):
		// Spread wider than the bound: only a clean separation still counts.
		if allBetter(def, a, b) {
			return verdictOK, worsening
		}
		return verdictUnresolved, worsening
	case worsening > def.Bound:
		return verdictWorse, worsening
	}
	return verdictOK, worsening
}

// allBetter holds when every value of b reads better than every value of a.
func allBetter(def metricDef, a, b []float64) bool {
	sa, sb := sortedCopy(a), sortedCopy(b)
	if def.Better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

func compareResults(w io.Writer, a, b resultsFile) (anyWorse bool) {
	fmt.Fprintf(w, "%-14s %-16s %14s %14s %9s %7s  %s\n", "workload", "metric", "base", "changed", "ratio", "bound", "verdict")
	for _, wl := range workloadDefs {
		disturbed := a.disturbed(wl.Name) || b.disturbed(wl.Name)
		for _, def := range endToEnd {
			av, bv := a.values(wl.Name, def.Name), b.values(wl.Name, def.Name)
			if len(av) == 0 || len(bv) == 0 {
				fmt.Fprintf(w, "%-14s %-16s %14s %14s %9s %6.0f%%  %s (missing on one side)\n", wl.Name, def.Name, "-", "-", "-", 100*def.Bound, verdictUnresolved)
				continue
			}
			verdict, _ := judge(def, av, bv, disturbed)
			anyWorse = anyWorse || verdict == verdictWorse
			base, changed := median(av), median(bv)
			note := ""
			if disturbed {
				note = "  (a run was flagged loadgen.disturbed)"
			}
			if len(av) > 1 || len(bv) > 1 {
				note += fmt.Sprintf("  (n=%d/%d, spread %.1f%%/%.1f%%)", len(av), len(bv), 100*quartileSpread(av), 100*quartileSpread(bv))
			}
			fmt.Fprintf(w, "%-14s %-16s %14.6g %14.6g %8.3fx %6.0f%%  %s%s\n",
				wl.Name, def.Name, base, changed, changed/base, 100*def.Bound, verdict, note)
		}
	}
	fmt.Fprintf(w, "ratio = changed / base (base: %s seed %d, changed: %s seed %d); bound = share of the base a metric may worsen by\n",
		a.Env.GitSHA, a.Env.Seed, b.Env.GitSHA, b.Env.Seed)
	return anyWorse
}
