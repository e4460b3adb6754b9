package stats

import (
	"fmt"
	"math"
)

// LeastSquares fits y ≈ Σ_j β_j·rows[i][j] by ordinary least squares
// and returns β. It solves the normal equations on columns scaled to
// unit root-mean-square, so counts of very different magnitudes fit
// together; a column that is all zero, or a linear combination of the
// others, is an error.
func LeastSquares(rows [][]float64, y []float64) ([]float64, error) {
	if len(rows) == 0 || len(rows) != len(y) {
		return nil, fmt.Errorf("stats: least squares needs equal, non-zero row and response counts (%d, %d)", len(rows), len(y))
	}
	k := len(rows[0])
	scale := make([]float64, k)
	for _, r := range rows {
		if len(r) != k {
			return nil, fmt.Errorf("stats: least squares rows of %d and %d columns", k, len(r))
		}
		for j, x := range r {
			scale[j] += x * x
		}
	}
	for j, s := range scale {
		if s == 0 {
			return nil, fmt.Errorf("stats: least squares column %d is all zero", j)
		}
		scale[j] = math.Sqrt(s / float64(len(rows)))
	}
	// The augmented normal equations [XᵀX | Xᵀy] of the scaled columns.
	a := make([][]float64, k)
	for j := range a {
		a[j] = make([]float64, k+1)
	}
	for i, r := range rows {
		for j := range a {
			xj := r[j] / scale[j]
			for l := j; l < k; l++ {
				a[j][l] += xj * r[l] / scale[l]
			}
			a[j][k] += xj * y[i]
		}
	}
	for j := range a {
		for l := 0; l < j; l++ {
			a[j][l] = a[l][j]
		}
	}
	// Gaussian elimination with partial pivoting.
	for c := 0; c < k; c++ {
		p := c
		for r := c + 1; r < k; r++ {
			if math.Abs(a[r][c]) > math.Abs(a[p][c]) {
				p = r
			}
		}
		if math.Abs(a[p][c]) < 1e-12*float64(len(rows)) {
			return nil, fmt.Errorf("stats: least squares columns are collinear")
		}
		a[c], a[p] = a[p], a[c]
		for r := c + 1; r < k; r++ {
			f := a[r][c] / a[c][c]
			for l := c; l <= k; l++ {
				a[r][l] -= f * a[c][l]
			}
		}
	}
	beta := make([]float64, k)
	for c := k - 1; c >= 0; c-- {
		s := a[c][k]
		for l := c + 1; l < k; l++ {
			s -= a[c][l] * beta[l]
		}
		beta[c] = s / a[c][c]
	}
	for j := range beta {
		beta[j] /= scale[j]
	}
	return beta, nil
}

// RSquared returns 1 − SS_res/SS_tot of the linear prediction β·row
// against y: the share of y's variance about its mean the prediction
// explains. It is 0 when y has no variance.
func RSquared(rows [][]float64, y, beta []float64) float64 {
	mean := 0.0
	for _, v := range y {
		mean += v
	}
	mean /= float64(len(y))
	var res, tot float64
	for i, r := range rows {
		pred := 0.0
		for j, x := range r {
			pred += beta[j] * x
		}
		res += (y[i] - pred) * (y[i] - pred)
		tot += (y[i] - mean) * (y[i] - mean)
	}
	if tot == 0 {
		return 0
	}
	return 1 - res/tot
}
