package starts_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// pkgDecls is what one package declares, its tests included: its
// package-level names, and each type's methods and struct fields.
type pkgDecls struct {
	names   map[string]bool
	members map[string]map[string]bool
}

func (p *pkgDecls) member(typ, name string) {
	if p.members[typ] == nil {
		p.members[typ] = map[string]bool{}
	}
	p.members[typ][name] = true
}

// receiverType is the name of a method's receiver type, pointer and type
// parameters stripped.
func receiverType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// internalDecls parses every package under internal/, keyed by its
// directory's name.
func internalDecls(t *testing.T) map[string]*pkgDecls {
	t.Helper()
	pkgs := map[string]*pkgDecls{}
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		name := filepath.Base(filepath.Dir(path))
		p := pkgs[name]
		if p == nil {
			p = &pkgDecls{names: map[string]bool{}, members: map[string]map[string]bool{}}
			pkgs[name] = p
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					p.names[decl.Name.Name] = true
				} else if len(decl.Recv.List) == 1 {
					p.member(receiverType(decl.Recv.List[0].Type), decl.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							p.names[n.Name] = true
						}
					case *ast.TypeSpec:
						p.names[spec.Name.Name] = true
						st, ok := spec.Type.(*ast.StructType)
						if !ok {
							continue
						}
						for _, field := range st.Fields.List {
							for _, n := range field.Names {
								p.member(spec.Name.Name, n.Name)
							}
							if len(field.Names) == 0 { // embedded
								if typ := receiverType(field.Type); typ != "" {
									p.member(spec.Name.Name, typ)
								} else if sel, ok := field.Type.(*ast.SelectorExpr); ok {
									p.member(spec.Name.Name, sel.Sel.Name)
								}
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// testFuncs returns the names of every test, benchmark and fuzz target
// in the tree, the benchmark's own module included.
func testFuncs(t *testing.T) []string {
	t.Helper()
	var names []string
	fset := token.NewFileSet()
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
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && testName.MatchString(fn.Name.Name) {
				names = append(names, fn.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

var (
	codeSpan = regexp.MustCompile("`([^`\n]+)`")
	// testName is a test, benchmark or fuzz target's name, or a prefix of
	// some (a -run pattern's), not preceded by a word character.
	testName = regexp.MustCompile(`(?:^|[^\w])((?:Test|Benchmark|Fuzz)\w*)`)
	// qualified is pkg.Name, optionally .Member, not preceded by a word
	// character, a dot, a slash or a hyphen (a path or a longer selector).
	qualified = regexp.MustCompile(`(?:^|[^\w./-])([a-z][a-z0-9]*)\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?`)
	// pathLine is a path:line reference to a file of the tree, such as
	// internal/result/stream.go:120, not preceded by a word character.
	pathLine = regexp.MustCompile(`(?:^|[^\w./-])([\w./-]+\.(?:go|md|json|sh|txt|yml)):(\d+)`)
	// fileExts are the "names" of file names such as index.go.
	fileExts = map[string]bool{"go": true, "md": true, "json": true, "sh": true, "txt": true, "yml": true}
)

// TestDocReferences holds README.md, DESIGN.md, EXPERIMENTS.md and the
// verify skill's notes to the code: every backticked pkg.Name, where pkg is a package
// under internal/, names a declaration of that package (tests included) —
// a package-level name or a method — and a pkg.Type.Name names a method or
// field of that type. A snake_case name is a benchmark metric
// (core.harvest_ms) and a file extension a file name (index.go); neither
// is checked. Every backticked Test…, Benchmark… or Fuzz… name names a
// test function in the tree or is a prefix of one (`-run TestPaper`).
// Every path:line reference in README.md and DESIGN.md, backticked or
// not, names a file of the tree (from the repository's root) that has
// that line; EXPERIMENTS.md records what was measured when, so its lines
// may name files as they were. A name that no longer exists is written
// there outside backticks.
func TestDocReferences(t *testing.T) {
	pkgs, tests := internalDecls(t), testFuncs(t)
	isMethod := func(p *pkgDecls, name string) bool {
		for _, m := range p.members {
			if m[name] {
				return true
			}
		}
		return false
	}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, m := range pathLine.FindAllStringSubmatch(line, -1) {
				if doc == "README.md" || doc == "DESIGN.md" {
					data, err := os.ReadFile(m[1])
					n, _ := strconv.Atoi(m[2])
					if lines := strings.Count(strings.TrimSuffix(string(data), "\n"), "\n") + 1; err != nil || n < 1 || n > lines {
						t.Errorf("%s:%d: `%s:%s` is no line of the tree (%d lines, %v)", doc, i+1, m[1], m[2], lines, err)
					}
				}
			}
			for _, span := range codeSpan.FindAllStringSubmatch(line, -1) {
				for _, m := range testName.FindAllStringSubmatch(span[1], -1) {
					if !slices.ContainsFunc(tests, func(name string) bool { return strings.HasPrefix(name, m[1]) }) {
						t.Errorf("%s:%d: `%s` names no test, benchmark or fuzz target", doc, i+1, m[1])
					}
				}
				for _, m := range qualified.FindAllStringSubmatch(span[1], -1) {
					pkg, name, member := m[1], m[2], m[3]
					p := pkgs[pkg]
					if p == nil || fileExts[name] || (strings.Contains(name, "_") && name == strings.ToLower(name)) {
						continue
					}
					ref := strings.TrimLeft(m[0], " \t([{,;:!*&")
					switch {
					case !p.names[name] && !isMethod(p, name):
						t.Errorf("%s:%d: `%s`: package %s declares no %s", doc, i+1, ref, pkg, name)
					case member != "" && p.members[name] != nil && !p.members[name][member]:
						t.Errorf("%s:%d: `%s`: %s.%s has no method or field %s", doc, i+1, ref, pkg, name, member)
					}
				}
			}
		}
	}
}
