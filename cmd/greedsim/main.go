// Command greedsim is the reproduction's command line, in three forms:
//
//	greedsim [flags]        game operating points: Nash, Stackelberg,
//	                        Pareto, envy, protection, dynamics, coalitions
//	greedsim des [flags]    the discrete-event switch simulator against
//	                        the analytic allocation functions
//	greedsim sweep [flags]  the figure-data sweeps as CSV or ASCII charts
//
// Examples:
//
//	greedsim -disc fair-share -profile "linear:1,0.2;linear:1,0.3"
//	greedsim -disc fifo -profile "linear:1,0.2;linear:1,0.2" -mode stackelberg -leader 0
//	greedsim -classes "500000xlinear:1,0.2@4e-7;500000xlinear:1,0.5@4e-7" -fluid
//	greedsim des -rates 0.1,0.15,0.2,0.25 -disc fairshare -horizon 4e5
//	greedsim sweep -sweep protection -chart
//	greedsim sweep -list
//
// Every form takes -timeout: work that exceeds it prints
// FAILED(deadline) and exits 1 with nothing partial printed (a truncated
// time average or figure is worse than none).  Bad input is refused
// before any work starts, with one line on stderr and exit 1.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"greednet/internal/core"
)

func main() {
	args := os.Args[1:]
	cmd := ""
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		cmd, args = args[0], args[1:]
	}
	switch cmd {
	case "":
		runGame(args)
	case "des":
		runDES(args)
	case "sweep":
		runSweep(args)
	default:
		check(fmt.Errorf("unknown command %q: use greedsim [flags], greedsim des [flags] or greedsim sweep [flags]", cmd))
	}
}

// parse parses one form's flags (a bad flag prints usage and exits 2)
// and refuses stray positional arguments.
func parse(fs *flag.FlagSet, args []string) {
	check(fs.Parse(args))
	if fs.NArg() > 0 {
		check(fmt.Errorf("unexpected argument %q", fs.Arg(0)))
	}
}

// withTimeout bounds work by the -timeout flag's d; 0 disables it.
func withTimeout(d time.Duration) (context.Context, context.CancelFunc) {
	if d > 0 {
		return context.WithTimeout(context.Background(), d)
	}
	return context.WithCancel(context.Background())
}

// check exits 1 on a non-nil err, printing it after the command name.
func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "greedsim:", err)
		os.Exit(1)
	}
}

// checkRun is check for work run under withTimeout: a deadline or a
// cancellation renders as FAILED(deadline) or FAILED(canceled), so
// scripts can grep for it.
func checkRun(err error, work string, timeout time.Duration) {
	switch {
	case errors.Is(err, core.ErrDeadline):
		err = fmt.Errorf("FAILED(deadline): %s exceeded the %v deadline", work, timeout)
	case errors.Is(err, core.ErrCanceled):
		err = fmt.Errorf("FAILED(canceled): %w", err)
	}
	check(err)
}
