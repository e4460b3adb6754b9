// Command borgexp reproduces the paper's experiments: the one front
// end to internal/experiment, internal/model and internal/stats. Each
// subcommand is documented on its run function and by
// `borgexp <command> -h`.
package main

import (
	"fmt"
	"os"

	"borgmoea/internal/cli"
)

func main() {
	cli.Main("borgexp", []cli.Command{
		{Name: "table2", Doc: "regenerate Table II on the virtual cluster (-quick for a smoke run, -paper for the full setup)", Run: runTable2},
		{Name: "figures", Doc: "regenerate Figure 3, 4 or 5 (-fig)", Run: runFigures},
		{Name: "scalesim", Doc: "sweep the simulation model over processor counts (-mtbf for the fault-tolerant driver)", Run: runScalesim},
		{Name: "fitdist", Doc: "fit and rank distributions for timing samples (stdin, -file or -collect)", Run: runFitdist},
	})
}

// fail reports err on stderr and returns exit status 1.
func fail(err error) int {
	fmt.Fprintln(os.Stderr, err)
	return 1
}

// progress is the experiment harness's progress sink.
func progress(line string) { fmt.Fprintln(os.Stderr, line) }
