package obs

import (
	"fmt"
	"regexp"
	"sort"
	"strings"
)

// This file is the single home of the registry's naming law. Three
// enforcement surfaces share these rules so they can never drift apart:
//
//   - registration (Registry.family) panics through them at runtime,
//   - Registry.Lint re-validates registered state for the CI metrics-lint
//     test, and
//   - gnnvet's metric-names check (internal/analysis) applies them to the
//     string literals at registration call sites, catching violations at
//     review time without running anything.

// nameRE is the naming law for metric and label names.
var nameRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// CheckMetricName reports whether name is a lawful metric family name.
func CheckMetricName(name string) error {
	if !nameRE.MatchString(name) {
		return fmt.Errorf("invalid metric name %q (want %s)", name, nameRE)
	}
	return nil
}

// CheckHelp reports whether the metric's help text is lawful (non-blank).
func CheckHelp(name, help string) error {
	if strings.TrimSpace(help) == "" {
		return fmt.Errorf("metric %s registered without help text", name)
	}
	return nil
}

// CheckLabelName reports whether one label name is lawful: it must match the
// name pattern and must not shadow the reserved histogram bucket label "le".
func CheckLabelName(name, label string) error {
	if !nameRE.MatchString(label) {
		return fmt.Errorf("metric %s has invalid label name %q (want %s)", name, label, nameRE)
	}
	if label == "le" {
		return fmt.Errorf("metric %s uses reserved label name \"le\"", name)
	}
	return nil
}

// CheckLabelNames validates every label name and their pairwise uniqueness.
func CheckLabelNames(name string, labels []string) error {
	seen := map[string]bool{}
	for _, l := range labels {
		if err := CheckLabelName(name, l); err != nil {
			return err
		}
		if seen[l] {
			return fmt.Errorf("metric %s repeats label name %q", name, l)
		}
		seen[l] = true
	}
	return nil
}

// CheckHistogramBounds reports whether a histogram's bucket upper bounds are
// lawful: at least one bound, strictly ascending (the same contract
// profile.NewHistogram enforces by panicking).
func CheckHistogramBounds(name string, bounds []float64) error {
	if len(bounds) == 0 {
		return fmt.Errorf("histogram %s has no bucket bounds", name)
	}
	if !sort.Float64sAreSorted(bounds) {
		return fmt.Errorf("histogram %s bounds are not ascending: %v", name, bounds)
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] == bounds[i-1] {
			return fmt.Errorf("histogram %s repeats bound %v", name, bounds[i])
		}
	}
	return nil
}
