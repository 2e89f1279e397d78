package repro

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// citedTest is a test name as the docs cite it; testFunc is a test's
// declaration in a _test.go file.
var (
	citedTest = regexp.MustCompile(`\bTest[A-Z][A-Za-z0-9_]*`)
	testFunc  = regexp.MustCompile(`(?m)^func (Test[A-Z][A-Za-z0-9_]*)\(`)
)

// TestDocsCiteExistingTests: every test the docs name exists. A cited name
// must be the prefix of some `func Test…` in a _test.go file of the tree, so
// a doc may cite a -run pattern (TestLateRelay) as well as a whole name; a
// renamed or deleted test fails here until the docs follow it.
func TestDocsCiteExistingTests(t *testing.T) {
	var funcs []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFunc.FindAllSubmatch(b, -1) {
			funcs = append(funcs, string(m[1]))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(funcs) == 0 {
		t.Fatal("no test functions found in the tree")
	}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(b), "\n") {
			for _, name := range citedTest.FindAllString(line, -1) {
				if !hasPrefixIn(funcs, name) {
					t.Errorf("%s:%d cites %s, which no test in the tree declares", doc, i+1, name)
				}
			}
		}
	}
}

// hasPrefixIn reports whether some name in names starts with prefix.
func hasPrefixIn(names []string, prefix string) bool {
	for _, n := range names {
		if strings.HasPrefix(n, prefix) {
			return true
		}
	}
	return false
}
