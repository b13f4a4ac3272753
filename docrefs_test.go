package starts_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
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

var (
	codeSpan = regexp.MustCompile("`([^`\n]+)`")
	// qualified is pkg.Name, optionally .Member, not preceded by a word
	// character, a dot, a slash or a hyphen (a path or a longer selector).
	qualified = regexp.MustCompile(`(?:^|[^\w./-])([a-z][a-z0-9]*)\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?`)
	// fileExts are the "names" of file names such as index.go.
	fileExts = map[string]bool{"go": true, "md": true, "json": true, "sh": true, "txt": true, "yml": true}
)

// TestDocReferences holds README.md and DESIGN.md to the code: every
// backticked pkg.Name, where pkg is a package under internal/, names a
// declaration of that package (tests included) — a package-level name or
// a method — and a pkg.Type.Name names a method or field of that type. A
// snake_case name is a benchmark metric (core.harvest_ms) and a file
// extension a file name (index.go); neither is checked. EXPERIMENTS.md is
// a record of what was measured when, and is not checked.
func TestDocReferences(t *testing.T) {
	pkgs := internalDecls(t)
	isMethod := func(p *pkgDecls, name string) bool {
		for _, m := range p.members {
			if m[name] {
				return true
			}
		}
		return false
	}
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, span := range codeSpan.FindAllStringSubmatch(line, -1) {
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
