package helios

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// roleFlag matches a role binary named with a flag, as the docs write it:
// `helios-frontend -listen`, with `/-flag` continuations
// (`helios-frontend -slo-target/-slo-window`) naming more of its flags.
var roleFlag = regexp.MustCompile(`helios-([a-z]+)\s+(-[a-z][a-z0-9-]*(?:/-[a-z][a-z0-9-]*)*)`)

// TestDocsNameOnlyRealFlags: every `helios-<role> -flag` that README.md,
// DESIGN.md or the verify skill names must be a flag the role's binary
// declares, as pinned by cmd/helios-<role>/testdata/flags.txt — so a flag
// deleted from a binary fails here until the docs stop offering it.
// Binaries without a flag golden (helios-lint, helios-bench) are skipped.
func TestDocsNameOnlyRealFlags(t *testing.T) {
	flags := map[string]map[string]bool{}
	golden, err := filepath.Glob("cmd/helios-*/testdata/flags.txt")
	if err != nil || len(golden) == 0 {
		t.Fatalf("no flag goldens found (%v)", err)
	}
	for _, path := range golden {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		role := strings.TrimPrefix(filepath.Base(filepath.Dir(filepath.Dir(path))), "helios-")
		flags[role] = map[string]bool{}
		for _, name := range strings.Fields(string(b)) {
			flags[role][name] = true
		}
	}
	named := 0
	for _, doc := range []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range roleFlag.FindAllStringSubmatch(string(b), -1) {
			known, ok := flags[m[1]]
			if !ok {
				continue
			}
			for _, flag := range strings.Split(m[2], "/") {
				named++
				if !known[strings.TrimPrefix(flag, "-")] {
					t.Errorf("%s names helios-%s %s, which cmd/helios-%s/testdata/flags.txt does not list", doc, m[1], flag, m[1])
				}
			}
		}
	}
	if named == 0 {
		t.Fatal("the docs name no role flag at all: the pattern has drifted from how they write them")
	}
}

// TestSeriesTableMatchesGolden: DESIGN.md's "Every exported series and its
// reader" table and internal/cluster/testdata/series.txt (which
// TestEverySeriesNamesItsReader checks against a booted cluster) are one
// list in two forms, so a row edited in one must be edited in the other.
func TestSeriesTableMatchesGolden(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("internal/cluster/testdata/series.txt")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(design), "### Every exported series and its reader\n")
	if !ok {
		t.Fatal(`DESIGN.md has no "Every exported series and its reader" section`)
	}
	var rows []string
	for _, line := range strings.Split(section, "\n") {
		name, reader, ok := strings.Cut(strings.TrimPrefix(line, "| `"), "` | ")
		if !strings.HasPrefix(line, "| `") || !ok {
			if len(rows) > 0 {
				break // the table's first non-row line ends it
			}
			continue
		}
		rows = append(rows, name+"\t"+strings.TrimSuffix(reader, " |"))
	}
	want := strings.Split(strings.TrimSpace(string(golden)), "\n")
	if len(rows) != len(want) {
		t.Errorf("DESIGN.md's series table has %d rows, series.txt %d lines", len(rows), len(want))
	}
	for i := 0; i < len(rows) && i < len(want); i++ {
		if rows[i] != want[i] {
			t.Errorf("row %d differs:\n  DESIGN.md:  %q\n  series.txt: %q", i+1, rows[i], want[i])
		}
	}
}

// makeTarget matches a Makefile rule's target.
var makeTarget = regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`)

// TestDocsNameOnlyRealMakeTargets: every `make <target>` that README.md,
// DESIGN.md or the verify skill names — inline in backticks, or as a
// command line in a fenced block — must be a rule in the Makefile, so a
// target deleted from it fails here until the docs stop offering it.
func TestDocsNameOnlyRealMakeTargets(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range makeTarget.FindAllStringSubmatch(string(mk), -1) {
		targets[m[1]] = true
	}
	inline := regexp.MustCompile("`make ([^`]*)`")
	named := 0
	for _, doc := range []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		fenced := false
		for i, line := range strings.Split(string(b), "\n") {
			var cmds []string
			for _, m := range inline.FindAllStringSubmatch(line, -1) {
				cmds = append(cmds, m[1])
			}
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
			} else if rest, ok := strings.CutPrefix(line, "make "); ok && fenced {
				cmds = append(cmds, rest)
			}
			for _, cmd := range cmds {
				cmd, _, _ = strings.Cut(cmd, "#")
				for _, target := range strings.Fields(cmd) {
					named++
					if !targets[target] {
						t.Errorf("%s:%d names make %s, which the Makefile does not define", doc, i+1, target)
					}
				}
			}
		}
	}
	if named == 0 {
		t.Fatal("the docs name no make target at all: the pattern has drifted from how they write them")
	}
}

// readerFile matches a repo file a series reader names, relative to the
// root or to internal/ (`frontend/chaos_test.go`),
// with the test it names in that file, if any.
var readerFile = regexp.MustCompile(`([a-z][a-z0-9_/.-]*/[a-z0-9_.-]+\.(?:go|sh))(?: (Test[A-Za-z0-9_]+))?`)

// TestSeriesReadersExist: every file a reader in
// internal/cluster/testdata/series.txt names must exist, and a test named
// beside it must be defined there, so a series whose reader was deleted
// fails here until it names the reader that replaced it or goes.
func TestSeriesReadersExist(t *testing.T) {
	golden, err := os.ReadFile("internal/cluster/testdata/series.txt")
	if err != nil {
		t.Fatal(err)
	}
	named := 0
	for i, line := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
		_, reader, _ := strings.Cut(line, "\t")
		for _, m := range readerFile.FindAllStringSubmatch(reader, -1) {
			named++
			var src []byte
			for _, path := range []string{m[1], filepath.Join("internal", m[1])} {
				if src, err = os.ReadFile(path); err == nil {
					break
				}
			}
			if err != nil {
				t.Errorf("series.txt:%d names %s, which is no file in the repo", i+1, m[1])
				continue
			}
			if m[2] != "" && !strings.Contains(string(src), "func "+m[2]+"(") {
				t.Errorf("series.txt:%d names %s %s, which that file does not define", i+1, m[1], m[2])
			}
		}
	}
	if named == 0 {
		t.Fatal("series.txt names no reader file at all: the pattern has drifted from how it writes them")
	}
}

// citedTest matches a test, benchmark, fuzz target or example the docs
// cite by name; a trailing `*` cites every name with that prefix.
var citedTest = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz|Example)[A-Z0-9_][A-Za-z0-9_]*\*?`)

// runArg matches a `-run` flag with its argument, a regex rather than a
// name (`-run TestLog` selects every TestLog… test).
var runArg = regexp.MustCompile(`-run\s+('[^']*'|"[^"]*"|[^\s` + "`" + `]+)`)

// TestDocsNameOnlyRealTests: every Test…, Benchmark…, Fuzz… or Example…
// name README.md, DESIGN.md or the verify skill cites must be defined in
// some _test.go file, so a test renamed or deleted fails here until the
// docs stop citing it.
func TestDocsNameOnlyRealTests(t *testing.T) {
	defined := map[string]bool{}
	def := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz|Example)\w*)\(`)
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // .git, and build caches such as benchmark/out/.build
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range def.FindAllStringSubmatch(string(src), -1) {
			defined[m[1]] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	exists := func(name string) bool {
		prefix, wild := strings.CutSuffix(name, "*")
		if !wild {
			return defined[name]
		}
		for d := range defined {
			if strings.HasPrefix(d, prefix) {
				return true
			}
		}
		return false
	}
	cited := map[string]bool{}
	for _, doc := range []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range citedTest.FindAllString(runArg.ReplaceAllString(string(b), ""), -1) {
			cited[name] = true
			if !exists(name) {
				t.Errorf("%s cites %s, which no _test.go file defines", doc, name)
			}
		}
	}
	if len(cited) == 0 {
		t.Fatal("the docs cite no test at all: the pattern has drifted from how they write them")
	}
	t.Logf("%d distinct names cited", len(cited))
}
