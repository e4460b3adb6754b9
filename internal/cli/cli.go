// Package cli holds what the repo's six binaries share: subcommand
// dispatch for the two multi-tool binaries (borgview, borgexp), the
// create/open-and-decode helpers, the island-<i>.<ext> naming every
// tool that writes or reads a run's artefacts uses, the one streaming
// event-log writer and the one replay of a recorded run, a single log
// or a federation's directory. The daemons' profiling flags live in
// internal/httpd, next to the ring they serve.
package cli

import (
	"flag"
	"fmt"
	"os"
)

// Command is one subcommand of a multi-tool binary. Run defines its
// flags on fs, parses args with it, and returns the exit status.
type Command struct {
	Name string
	Doc  string
	Run  func(fs *flag.FlagSet, args []string) int
}

// Main dispatches os.Args[1] over cmds and exits with the command's
// status. A missing or unknown subcommand prints the command list on
// stderr and exits 2.
func Main(tool string, cmds []Command) {
	if len(os.Args) > 1 {
		for _, c := range cmds {
			if c.Name == os.Args[1] {
				fs := flag.NewFlagSet(tool+" "+c.Name, flag.ExitOnError)
				os.Exit(c.Run(fs, os.Args[2:]))
			}
		}
		fmt.Fprintf(os.Stderr, "%s: unknown command %q\n", tool, os.Args[1])
	}
	fmt.Fprintf(os.Stderr, "usage: %s <command> [flags]\n\ncommands:\n", tool)
	for _, c := range cmds {
		fmt.Fprintf(os.Stderr, "  %-9s %s\n", c.Name, c.Doc)
	}
	fmt.Fprintf(os.Stderr, "\n%s <command> -h lists a command's flags.\n", tool)
	os.Exit(2)
}
