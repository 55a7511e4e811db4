// Command helios-lint runs the Helios static-analysis suite (internal/lint)
// over every package of the module and reports findings with file:line
// positions.
//
// Usage:
//
//	helios-lint [flags] [patterns]
//
// Patterns select packages by directory, e.g. ./... (default, the whole
// module), ./internal/... or ./internal/mq. Exit codes are machine
// readable: 0 clean, 1 findings, 2 load or usage error.
//
// Flags:
//
//	-json           emit the report as JSON instead of file:line lines
//	-enable  names  comma-separated analyzers to run (default: all)
//	-disable names  comma-separated analyzers to skip
//	-list           print the available analyzers and exit
//	-C dir          module directory (default: walk up from cwd to go.mod)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"strings"

	"helios/internal/lint"
	"helios/internal/obs"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		jsonOut  = flag.Bool("json", false, "emit the report as JSON")
		enable   = flag.String("enable", "", "comma-separated analyzers to run (default: all)")
		disable  = flag.String("disable", "", "comma-separated analyzers to skip")
		list     = flag.Bool("list", false, "print the available analyzers and exit")
		dir      = flag.String("C", "", "module directory (default: walk up from cwd to go.mod)")
		opsAddr  = flag.String("ops-addr", "", "serve /metrics, /traces, /slo and pprof on this address (empty = disabled)")
		logLevel = flag.String("log-level", "warn", "structured log level: debug, info, warn, error")
	)
	flag.Parse()

	lv, ok := obs.ParseLevel(*logLevel)
	if !ok {
		fmt.Fprintf(os.Stderr, "helios-lint: unknown -log-level %q\n", *logLevel)
		return 2
	}
	logger := obs.NewLogger(os.Stderr, "lint")
	logger.SetLevel(lv)

	ops, err := obs.ServeDefault(*opsAddr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "helios-lint: ops listener:", err)
		return 2
	}
	defer ops.Close()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers, err := lint.Select(splitNames(*enable), splitNames(*disable))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if len(analyzers) == 0 {
		fmt.Fprintln(os.Stderr, "helios-lint: no analyzers selected")
		return 2
	}

	root := *dir
	if root == "" {
		root = "."
	}
	root, err = lint.FindModuleRoot(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	fset := token.NewFileSet()
	pkgs, err := lint.LoadModule(fset, root)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	pkgs, err = filterPackages(pkgs, root, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	report := lint.Run(fset, pkgs, analyzers, lint.DefaultOptions())
	relativizeFiles(&report, root)
	logger.Info(0, "lint.run", "analysis complete",
		"packages", report.Packages, "findings", report.Count, "suppressed", report.Suppressed)

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	} else {
		for _, f := range report.Findings {
			fmt.Println(f)
		}
		if report.Count > 0 {
			fmt.Fprintf(os.Stderr, "helios-lint: %d finding(s) across %d package(s) (%d suppressed by //lint:allow)\n",
				report.Count, report.Packages, report.Suppressed)
		}
	}
	if report.Count > 0 {
		return 1
	}
	return 0
}

func splitNames(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, name := range strings.Split(s, ",") {
		if name = strings.TrimSpace(name); name != "" {
			out = append(out, name)
		}
	}
	return out
}

// filterPackages narrows the loaded set to the requested ./dir or ./dir/...
// patterns. No patterns (or ./...) selects everything.
func filterPackages(pkgs []*lint.Package, root string, patterns []string) ([]*lint.Package, error) {
	if len(patterns) == 0 {
		return pkgs, nil
	}
	var out []*lint.Package
	seen := make(map[string]bool)
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
		}
		if pat == "." || pat == "./" || pat == "" {
			if recursive {
				return pkgs, nil
			}
		}
		dir := filepath.Join(root, filepath.FromSlash(strings.TrimPrefix(pat, "./")))
		matched := false
		for _, p := range pkgs {
			if p.Dir == dir || (recursive && strings.HasPrefix(p.Dir, dir+string(filepath.Separator))) || (recursive && p.Dir == dir) {
				matched = true
				if !seen[p.PkgPath] {
					seen[p.PkgPath] = true
					out = append(out, p)
				}
			}
		}
		if !matched {
			return nil, fmt.Errorf("helios-lint: pattern %q matched no packages", pat)
		}
	}
	return out, nil
}

// relativizeFiles rewrites absolute file paths relative to the module root
// so diagnostics are stable across machines.
func relativizeFiles(report *lint.Report, root string) {
	for i := range report.Findings {
		if rel, err := filepath.Rel(root, report.Findings[i].File); err == nil && !strings.HasPrefix(rel, "..") {
			report.Findings[i].File = rel
		}
	}
}
