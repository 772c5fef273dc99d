package qtrace

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strconv"
	"strings"
	"testing"
)

// phaseConstants parses qtrace.go and returns the string value of every
// Phase* constant — the authoritative list the exporter docs must track.
func phaseConstants(t *testing.T) map[string]string {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "qtrace.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	phases := map[string]string{}
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, name := range vs.Names {
				if !strings.HasPrefix(name.Name, "Phase") || i >= len(vs.Values) {
					continue
				}
				lit, ok := vs.Values[i].(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					continue
				}
				v, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatalf("%s: %v", name.Name, err)
				}
				phases[name.Name] = v
			}
		}
	}
	if len(phases) < 5 {
		t.Fatalf("parsed only %d Phase constants: %v", len(phases), phases)
	}
	return phases
}

// TestPhaseConstantsDocumented pins the exporter schema docs to the Phase
// constants: adding a new Phase* without documenting its CSV value
// in export.go and EXPERIMENTS.md fails here, which is the point — the
// cluster phases went undocumented for two PRs before this gate existed.
func TestPhaseConstantsDocumented(t *testing.T) {
	phases := phaseConstants(t)
	for _, doc := range []string{"export.go", "../../EXPERIMENTS.md"} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(src)
		for name, value := range phases {
			if !strings.Contains(text, `"`+value+`"`) {
				t.Errorf("%s: phase constant %s (value %q) is not documented", doc, name, value)
			}
		}
	}
}

// TestClusterStagesDocumented extends the same gate to the cluster stage
// labels that appear in the stage column since PR 6.
func TestClusterStagesDocumented(t *testing.T) {
	for _, doc := range []string{"export.go", "../../EXPERIMENTS.md"} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, stage := range []string{"FeatureExtraction", "ShortlistRetrieval", "Rerank", "fe-cache", "fe-coalesce"} {
			if !strings.Contains(string(src), stage) {
				t.Errorf("%s: cluster label %q is not documented", doc, stage)
			}
		}
	}
}
