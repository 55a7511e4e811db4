// Command benchmark is the Helios load harness: a generator process that
// re-executes itself as the system under test, drives it the two ways users
// do (the HTTP gateway and the stream path), checks every answer against an
// oracle and reports end-to-end and per-layer metrics. See README.md.
package main

import (
	"fmt"
	"os"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch cmd, args := os.Args[1], os.Args[2:]; cmd {
	case "run":
		err = runMain(args, false)
	case "trace":
		err = runMain(args, true)
	case "sut":
		err = sutMain(args)
	case "compare":
		err = compareMain(args, os.Stdout)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  benchmark run [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-repeat N] [-pprof DIR]
  benchmark trace [-workload NAME] [-seed N] [-seconds S]
  benchmark compare PARENT.json CHANGE.json`)
}
