// Command borgbench runs the repository's benchmark: five seeded
// workloads, six end-to-end metrics and the per-layer ladder. Usage is
// on bench.Main; bench/README.md has the protocol and the baseline.
package main

import (
	"fmt"
	"os"

	"borgmoea/bench"
)

func main() {
	if err := bench.Main(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "borgbench:", err)
		os.Exit(1)
	}
}
