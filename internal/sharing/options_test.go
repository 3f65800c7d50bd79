package sharing

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestOptionsFieldsHaveCallers keeps dead knobs from growing back: every
// exported field of Options and Hooks must be named — as a selector or a
// composite-literal key — by some non-test Go file of the repository
// outside this package (bench/ included). The match is by name only, no
// type information: an unrelated x.Shards counts as a caller, so the
// guard can miss a dead field but never raises a false alarm.
func TestOptionsFieldsHaveCallers(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	self := filepath.Join(root, "internal", "sharing")
	named := map[string]bool{}
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == self || (path != root && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				named[n.Sel.Name] = true
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					named[id.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, typ := range []reflect.Type{reflect.TypeOf(Options{}), reflect.TypeOf(Hooks{})} {
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() && !named[f.Name] {
				t.Errorf("sharing.%s.%s is named by no non-test file outside internal/sharing: wire it to a caller or delete it", typ.Name(), f.Name)
			}
		}
	}
}
