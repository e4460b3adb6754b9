package operators

import "math"

// pow is math.Pow: on s390x math.Pow is assembly, whose rounding the
// shortcuts in pow.go do not reproduce.
func pow(x, y float64) float64 { return math.Pow(x, y) }
