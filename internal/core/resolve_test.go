package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// symbolRef matches the code names an Implementation string cites:
// pkg.Name, pkg.Type.Method, pkg.{A,B} and pkg.A/B/C. The package is a
// lower-case word, every name starts upper-case, so prose such as
// "Identi.ca" is not a reference.
var symbolRef = regexp.MustCompile(`\b([a-z][a-z0-9]*)\.(\{[^}]*\}|[A-Z]\w*(?:\.[A-Z]\w*)?(?:/[A-Z]\w*)*)`)

// implementedNames expands one Implementation string into (package,
// symbol) pairs, a symbol being "Name" or "Type.Method".
func implementedNames(impl string) [][2]string {
	var out [][2]string
	for _, m := range symbolRef.FindAllStringSubmatch(impl, -1) {
		pkg, names := m[1], m[2]
		var list []string
		if strings.HasPrefix(names, "{") {
			list = strings.Split(strings.Trim(names, "{}"), ",")
		} else {
			// In pkg.A/B/C every later name is a sibling of A's last part:
			// storage.Seal/PutSealed names storage.PutSealed.
			parts := strings.Split(names, "/")
			list = append(list, parts[0])
			prefix := parts[0][:strings.LastIndex(parts[0], ".")+1]
			for _, p := range parts[1:] {
				list = append(list, prefix+p)
			}
		}
		for _, n := range list {
			out = append(out, [2]string{pkg, strings.TrimSpace(n)})
		}
	}
	return out
}

// declaredNames parses the non-test files of one internal package and
// returns its top-level names: functions, types, variables and constants
// as "Name", methods as "Type.Method" and as "Name" too, because the tables
// cite some methods bare (storage.RetAudit is Client.RetAudit).
func declaredNames(t *testing.T, dir string) map[string]bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no Go files in %s (%v)", dir, err)
	}
	fset := token.NewFileSet()
	names := map[string]bool{}
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					names[d.Name.Name] = true
					continue
				}
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					names[id.Name+"."+d.Name.Name] = true
					names[d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						names[s.Name.Name] = true
					case *ast.ValueSpec:
						for _, id := range s.Names {
							names[id.Name] = true
						}
					}
				}
			}
		}
	}
	return names
}

// TestImplementedByResolves keeps the "Implemented By" column honest: every
// symbol that Table 1, Table 2 or the §2 profiles cite must be declared in
// internal/<pkg>, so renaming or deleting a cited mechanism fails here
// instead of leaving the printed table pointing at nothing.
func TestImplementedByResolves(t *testing.T) {
	var impls []string
	for _, r := range Table1() {
		impls = append(impls, r.Implementation)
	}
	for _, r := range Table2() {
		impls = append(impls, r.Implementation)
	}
	for _, p := range Profiles() {
		impls = append(impls, p.Implementation)
	}
	decls := map[string]map[string]bool{}
	for _, impl := range impls {
		refs := implementedNames(impl)
		if len(refs) == 0 {
			t.Errorf("%q cites no pkg.Name symbol", impl)
		}
		for _, ref := range refs {
			pkg, name := ref[0], ref[1]
			if decls[pkg] == nil {
				dir := filepath.Join("..", pkg)
				if _, err := os.Stat(dir); err != nil {
					t.Errorf("%q: no package internal/%s", impl, pkg)
					continue
				}
				decls[pkg] = declaredNames(t, dir)
			}
			if !decls[pkg][name] {
				t.Errorf("%q: %s.%s is not declared in internal/%s", impl, pkg, name, pkg)
			}
		}
	}
}
