// Package lint is the Helios static-analysis suite: a small analyzer
// framework on the stdlib go/ast + go/types packages (no external
// dependencies, matching the module's zero-dependency go.mod) plus the
// project-specific analyzers that encode the concurrency and determinism
// invariants the paper's correctness claims rest on (§4 non-blocking
// ingestion, §5 deterministic reservoir replay, §6 recovery).
//
// Findings can be suppressed per line with a justification comment:
//
//	//lint:allow <analyzer> reason=<why this is intentional>
//
// placed on the offending line or the line directly above it. The reason=
// clause is mandatory, and the engine reports stale allows — comments whose
// analyzer no longer fires on their line — so dead exemptions cannot
// accumulate. The driver (cmd/helios-lint) runs every analyzer over every
// package of the module and exits non-zero when any unsuppressed finding
// remains.
package lint

import (
	"fmt"
	"go/token"
	"sort"
)

// Finding is one diagnostic, addressable as file:line:col.
type Finding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// Report is the machine-readable result of a suite run (the -json output).
type Report struct {
	Findings   []Finding `json:"findings"`
	Count      int       `json:"count"`
	Suppressed int       `json:"suppressed"`
	Packages   int       `json:"packages"`
}

// Options tunes the project-specific analyzers.
type Options struct {
	// DeterministicPkgs lists import-path substrings of packages that must
	// be replay-deterministic: walltime flags direct wall-clock and global
	// RNG use there (they must take an injected clock/seed instead).
	DeterministicPkgs []string
	// BlockingPkgs lists import-path substrings whose calls block on I/O or
	// queues: lockacrossblock flags calls into them while a mutex is held.
	BlockingPkgs []string
	// FaultpointPkgs lists import-path substrings of packages whose
	// file/network I/O boundaries must be reachable only through faultpoint
	// hooks: faultcover flags raw I/O sites there whose enclosing function
	// is not hook-covered.
	FaultpointPkgs []string
}

// DefaultOptions returns the repository configuration: the broker and RPC
// layers are the blocking surfaces (§4: serving must never stall ingestion
// by holding locks across queue or RPC calls), and the sampling, codec and
// checkpoint/replay paths are the deterministic core (§5, §6).
func DefaultOptions() *Options {
	return &Options{
		DeterministicPkgs: []string{
			"helios/internal/sampler",
			"helios/internal/sampling",
			"helios/internal/serving",
			"helios/internal/codec",
			"helios/internal/wire",
			"helios/internal/kvstore",
		},
		BlockingPkgs: []string{
			"helios/internal/mq",
			"helios/internal/rpc",
		},
		FaultpointPkgs: []string{
			"helios/internal/rpc",
			"helios/internal/mq",
			"helios/internal/kvstore",
			// The snapshot/checkpoint write paths: crash-safety claims rest
			// on every fsync and rename being fault-injectable.
			"helios/internal/fsx",
			"helios/internal/sampler",
			"helios/internal/serving",
		},
	}
}

// Analyzer is one named check.
type Analyzer struct {
	// Name is the identifier used by -enable/-disable flags and
	// //lint:allow comments.
	Name string
	// Doc is a one-line description of the invariant the analyzer encodes.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
}

// Pass carries one (analyzer, package) unit of work.
type Pass struct {
	Fset *token.FileSet
	Pkg  *Package
	Opts *Options
	// Index is the module-wide call graph shared by all passes of one Run,
	// letting analyzers resolve calls into sibling packages (faultcover
	// coverage, deadlinepass handler resolution).
	Index *Index

	analyzer   *Analyzer
	findings   *[]Finding
	suppressed *int
}

// Reportf records a finding at pos unless an allowlist comment suppresses
// it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.Pkg.allows.allowed(position.Filename, position.Line, p.analyzer.Name) {
		*p.suppressed++
		return
	}
	*p.findings = append(*p.findings, Finding{
		Analyzer: p.analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the full suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		LockAcrossBlock,
		LockBalance,
		DroppedError,
		Walltime,
		GoroutineStop,
		BoundedWait,
		DeadlinePass,
		FaultCover,
		MetricLabel,
		HotPathAlloc,
	}
}

// Select resolves enable/disable name lists against the full suite. An
// empty enable list means "all". Unknown names are an error so a typo in a
// CI config cannot silently disable a gate.
func Select(enable, disable []string) ([]*Analyzer, error) {
	all := Analyzers()
	byName := make(map[string]*Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	for _, name := range append(append([]string{}, enable...), disable...) {
		if _, ok := byName[name]; !ok {
			return nil, fmt.Errorf("lint: unknown analyzer %q", name)
		}
	}
	drop := make(map[string]bool, len(disable))
	for _, name := range disable {
		drop[name] = true
	}
	for _, name := range enable {
		if drop[name] {
			return nil, fmt.Errorf("lint: analyzer %q both enabled and disabled", name)
		}
	}
	keep := make(map[string]bool, len(enable))
	for _, name := range enable {
		keep[name] = true
	}
	var out []*Analyzer
	for _, a := range all {
		if drop[a.Name] {
			continue
		}
		if len(enable) > 0 && !keep[a.Name] {
			continue
		}
		out = append(out, a)
	}
	return out, nil
}

// Run executes the analyzers over the packages and returns a deterministic,
// position-sorted report. After the analyzers finish it appends allowlist
// hygiene findings (analyzer name "allow"): comments missing the mandatory
// reason= clause, comments naming an unknown analyzer, and stale comments
// that suppressed nothing this run. Hygiene findings are not themselves
// suppressible.
func Run(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer, opts *Options) Report {
	if opts == nil {
		opts = DefaultOptions()
	}
	index := BuildIndex(pkgs)
	findings := []Finding{} // non-nil so the JSON report always has an array
	suppressed := 0
	for _, pkg := range pkgs {
		if pkg.allows != nil {
			for _, e := range pkg.allows.entries {
				e.hits = 0 // staleness is judged per run
			}
		}
	}
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Fset:       fset,
				Pkg:        pkg,
				Opts:       opts,
				Index:      index,
				analyzer:   a,
				findings:   &findings,
				suppressed: &suppressed,
			}
			a.Run(pass)
		}
	}
	findings = append(findings, allowHygiene(fset, pkgs, analyzers)...)
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return Report{Findings: findings, Count: len(findings), Suppressed: suppressed, Packages: len(pkgs)}
}
