package repro

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

// namedDocs are the documents whose backticked names must exist.
var namedDocs = []string{"DESIGN.md", "EXPERIMENTS.md", "README.md"}

// repoIdents parses every Go file of the repository and returns, per package
// directory (slash-separated, relative to the root), the set of every
// identifier it declares: funcs, methods, types, struct fields (embedded
// ones by type name), interface methods, consts and vars. It also returns
// the directories of each package name. Commands and examples (package
// main) are left out: no doc names them as pkg.Identifier.
func repoIdents(t *testing.T) (byDir map[string]map[string]bool, dirsByName map[string][]string) {
	t.Helper()
	byDir = map[string]map[string]bool{}
	dirsByName = map[string][]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		name := f.Name.Name
		if name == "main" || strings.HasSuffix(name, "_test") {
			return nil
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		idents := byDir[dir]
		if idents == nil {
			idents = map[string]bool{}
			byDir[dir] = idents
			dirsByName[name] = append(dirsByName[name], dir)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				idents[n.Name.Name] = true
				return false
			case *ast.FuncType, *ast.BlockStmt:
				return false // parameters and locals are not declarations a doc names
			case *ast.TypeSpec:
				idents[n.Name.Name] = true
			case *ast.ValueSpec:
				for _, id := range n.Names {
					idents[id.Name] = true
				}
			case *ast.Field:
				for _, id := range n.Names {
					idents[id.Name] = true
				}
				if len(n.Names) == 0 {
					embedded := n.Type
					if star, ok := embedded.(*ast.StarExpr); ok {
						embedded = star.X
					}
					switch e := embedded.(type) {
					case *ast.Ident:
						idents[e.Name] = true
					case *ast.SelectorExpr:
						idents[e.Sel.Name] = true
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return byDir, dirsByName
}

var (
	backticked = regexp.MustCompile("`([^`\n]+)`")
	// qualified is pkg.Identifier[.Member] at the start of a span, followed
	// by the end of the span or by call, literal or index syntax. Only an
	// exported-looking (capitalised) Identifier counts: the docs' lowercase
	// dotted names are registry resources and JSON keys such as `mem.host`
	// or `storage.host_gather_eff`, not Go identifiers.
	qualified = regexp.MustCompile(`^([a-z][a-z0-9]*)\.([A-Z]\w*)(?:\.(\w+))?(?:$|[({\[ ])`)
	// pathIdent is a package directory followed by .Identifier[.Member],
	// as in `internal/config.Default()`.
	pathIdent = regexp.MustCompile(`^([\w./-]+/\w+)\.([A-Z]\w*)(?:\.(\w+))?(?:$|[({\[ ])`)
	lineRef   = regexp.MustCompile(`:\d+(-\d+)?$`)
)

// TestDocNamesExist keeps the docs from naming what is gone: every
// backticked repository path in DESIGN.md, EXPERIMENTS.md and README.md
// must exist, and so must every backticked pkg.Identifier[.Member] whose
// pkg is a repository package. A repository path is a span without spaces
// that contains a slash and starts with a top-level directory of the
// repository; a glob must match something, and a :line suffix or a
// trailing /... is ignored. A package directory may carry an identifier,
// as in `internal/config.Default()`.
func TestDocNamesExist(t *testing.T) {
	byDir, dirsByName := repoIdents(t)
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	topDirs := map[string]bool{}
	for _, e := range entries {
		topDirs[e.Name()] = e.IsDir()
	}
	// declared reports whether one of dirs declares ident and member.
	declared := func(dirs []string, ident, member string) bool {
		for _, d := range dirs {
			if byDir[d][ident] && (member == "" || byDir[d][member]) {
				return true
			}
		}
		return false
	}
	checked := 0
	for _, doc := range namedDocs {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range backticked.FindAllStringSubmatch(string(b), -1) {
			span := m[1]
			if q := qualified.FindStringSubmatch(span); q != nil {
				if dirs, ok := dirsByName[q[1]]; ok {
					checked++
					if !declared(dirs, q[2], q[3]) {
						t.Errorf("%s names `%s`: package %s declares no such name", doc, span, q[1])
					}
				}
				continue
			}
			if strings.ContainsAny(span, " \t") || !strings.Contains(span, "/") || !topDirs[strings.Split(span, "/")[0]] {
				continue
			}
			checked++
			if q := pathIdent.FindStringSubmatch(span); q != nil && byDir[q[1]] != nil {
				if !declared([]string{q[1]}, q[2], q[3]) {
					t.Errorf("%s names `%s`: %s declares no such name", doc, span, q[1])
				}
				continue
			}
			path := strings.TrimSuffix(lineRef.ReplaceAllString(span, ""), "/...")
			if matches, err := filepath.Glob(filepath.FromSlash(path)); err != nil || len(matches) == 0 {
				t.Errorf("%s names `%s`, which does not exist", doc, span)
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no backticked name to check")
	}
}
