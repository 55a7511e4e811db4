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
