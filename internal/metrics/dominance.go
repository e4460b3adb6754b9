// Package metrics implements the quality indicators used by the
// paper's evaluation — above all the hypervolume metric (Zitzler et
// al.), computed exactly with the WFG algorithm and approximately by
// Monte Carlo — plus generational distance, inverted generational
// distance, the additive ε-indicator, and spacing. All metrics treat
// objectives as minimized.
package metrics

// Dominates reports whether objective vector a Pareto-dominates b:
// a is no worse in every objective and strictly better in at least
// one.
func Dominates(a, b []float64) bool {
	better := false
	for i := range a {
		switch {
		case a[i] < b[i]:
			better = true
		case a[i] > b[i]:
			return false
		}
	}
	return better
}

func equal(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
