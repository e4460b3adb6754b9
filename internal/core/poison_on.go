//go:build poisonsolutions

package core

// poisonSolutions overwrites the Vars and result storage of every
// released solution with NaN, so that any code still reading a
// solution after its Borg reused it breaks an equivalence, replay or
// fuzz test instead of passing silently. Only test runs build it:
//
//	go test -tags poisonsolutions ./...
const poisonSolutions = true
