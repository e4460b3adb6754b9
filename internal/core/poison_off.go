//go:build !poisonsolutions

package core

// poisonSolutions: see poison_on.go.
const poisonSolutions = false
