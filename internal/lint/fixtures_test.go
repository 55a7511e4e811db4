package lint

import (
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// checkWants compares a report against the `// want <analyzer>` markers in
// the fixture sources: every marked line must produce a finding for that
// analyzer, and every finding must sit on a marked line.
func checkWants(t *testing.T, fset *token.FileSet, pkgs []*Package, analyzer string, rep Report) {
	t.Helper()
	type mark struct {
		file string
		line int
	}
	want := make(map[mark]bool)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					fields := strings.Fields(text)
					if len(fields) == 2 && fields[0] == "want" && fields[1] == analyzer {
						pos := fset.Position(c.Pos())
						want[mark{pos.Filename, pos.Line}] = true
					}
				}
			}
		}
	}
	if len(want) == 0 {
		t.Fatalf("fixture has no `// want %s` markers; the positive cases are not being tested", analyzer)
	}
	got := make(map[mark]string)
	for _, f := range rep.Findings {
		if f.Analyzer != analyzer {
			t.Errorf("finding from unexpected analyzer %s at %s:%d", f.Analyzer, f.File, f.Line)
			continue
		}
		got[mark{f.File, f.Line}] = f.Message
	}
	for m := range want {
		if _, ok := got[m]; !ok {
			t.Errorf("missing expected %s finding at %s:%d", analyzer, m.file, m.line)
		}
	}
	for m, msg := range got {
		if !want[m] {
			t.Errorf("unexpected %s finding at %s:%d: %s", analyzer, m.file, m.line, msg)
		}
	}
}

// TestAnalyzerFixtures runs each analyzer alone over its fixture package and
// checks findings against the `// want` markers. Each fixture also carries
// one //lint:allow-suppressed violation, so Suppressed must be non-zero.
func TestAnalyzerFixtures(t *testing.T) {
	cases := []struct {
		name string
		opts *Options
	}{
		{name: "lockacrossblock"},
		{name: "lockbalance"},
		{name: "droppederror"},
		{name: "walltime", opts: &Options{DeterministicPkgs: []string{"fixture/walltime"}}},
		{name: "goroutinestop"},
		{name: "boundedwait"},
		{name: "deadlinepass"},
		{name: "metriclabel"},
		{name: "hotpathalloc"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fset := token.NewFileSet()
			pkg, err := LoadDir(fset, filepath.Join("testdata", tc.name), "fixture/"+tc.name)
			if err != nil {
				t.Fatalf("LoadDir: %v", err)
			}
			if len(pkg.TypeErrors) > 0 {
				t.Fatalf("fixture has type errors: %v", pkg.TypeErrors)
			}
			analyzers, err := Select([]string{tc.name}, nil)
			if err != nil {
				t.Fatalf("Select: %v", err)
			}
			rep := Run(fset, []*Package{pkg}, analyzers, tc.opts)
			checkWants(t, fset, []*Package{pkg}, tc.name, rep)
			if rep.Suppressed == 0 {
				t.Errorf("fixture's //lint:allow case did not register as suppressed")
			}
		})
	}
}

// TestDeadlinePassNamesTheFullForm: rule 3 sends a budget-blind handler to
// the one registration form that sees the budget, HandleBuf.
func TestDeadlinePassNamesTheFullForm(t *testing.T) {
	fset := token.NewFileSet()
	pkg, err := LoadDir(fset, filepath.Join("testdata", "deadlinepass"), "fixture/deadlinepass")
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	analyzers, err := Select([]string{"deadlinepass"}, nil)
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	rule3 := 0
	for _, f := range Run(fset, []*Package{pkg}, analyzers, nil).Findings {
		if !strings.HasPrefix(f.Message, "handler registered via Handle ") {
			continue
		}
		rule3++
		if !strings.Contains(f.Message, "register it via HandleBuf and forward ctx.Remaining()") {
			t.Errorf("%s:%d: rule 3 says %q", f.File, f.Line, f.Message)
		}
	}
	if rule3 != 2 {
		t.Fatalf("%d rule-3 findings on the fixture, want its 2", rule3)
	}
}

// TestLockAcrossBlockModuleFixture loads the two-package lockmod module so
// the cross-package half of lockacrossblock — a call into a configured
// blocking package while a mutex is held — is exercised with real type
// information resolved across package boundaries.
func TestLockAcrossBlockModuleFixture(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := LoadModule(fset, filepath.Join("testdata", "lockmod"))
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("loaded %d packages, want 2 (lockmod/mq and lockmod/worker)", len(pkgs))
	}
	for _, pkg := range pkgs {
		if len(pkg.TypeErrors) > 0 {
			t.Fatalf("%s has type errors: %v", pkg.PkgPath, pkg.TypeErrors)
		}
	}
	analyzers, err := Select([]string{"lockacrossblock"}, nil)
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	rep := Run(fset, pkgs, analyzers, &Options{BlockingPkgs: []string{"lockmod/mq"}})
	checkWants(t, fset, pkgs, "lockacrossblock", rep)
}

// TestFaultCoverModuleFixture loads the three-package faultmod module so
// faultcover's coverage fixpoint is exercised across package boundaries:
// hooks in faultmod/boot cover I/O helpers in faultmod/store, hook-free
// cross-package callers break coverage, and goroutine spawns never
// propagate it.
func TestFaultCoverModuleFixture(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := LoadModule(fset, filepath.Join("testdata", "faultmod"))
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	if len(pkgs) != 3 {
		t.Fatalf("loaded %d packages, want 3 (faultmod/{boot,faultpoint,store})", len(pkgs))
	}
	for _, pkg := range pkgs {
		if len(pkg.TypeErrors) > 0 {
			t.Fatalf("%s has type errors: %v", pkg.PkgPath, pkg.TypeErrors)
		}
	}
	analyzers, err := Select([]string{"faultcover"}, nil)
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	rep := Run(fset, pkgs, analyzers, &Options{FaultpointPkgs: []string{"faultmod/store"}})
	checkWants(t, fset, pkgs, "faultcover", rep)
	if rep.Suppressed == 0 {
		t.Errorf("fixture's //lint:allow case did not register as suppressed")
	}
	// The shared-helper finding names its hook-free entry path.
	found := false
	for _, f := range rep.Findings {
		if strings.Contains(f.Message, "uncovered callers: SaveUnhooked") {
			found = true
		}
	}
	if !found {
		t.Errorf("no finding names SaveUnhooked as the uncovered caller; messages: %v", rep.Findings)
	}
}
