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

// callerNames parses every non-test Go file of the repository (bench/
// included) outside the directory skip and returns every name it uses as
// a selector or a composite-literal key: bare ("Shards") and, when the
// selector's operand is an identifier, qualified ("sharing.ReplayMulti").
// The match is by name only, no type information: an unrelated x.Shards
// counts as a caller, so a guard built on it can miss a dead name but
// never raises a false alarm.
func callerNames(t *testing.T, skip string) map[string]bool {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	named := map[string]bool{}
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == skip || (path != root && strings.HasPrefix(d.Name(), ".")) {
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
				if x, ok := n.X.(*ast.Ident); ok {
					named[x.Name+"."+n.Sel.Name] = true
				}
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
	return named
}

// TestOptionsFieldsHaveCallers keeps dead knobs from growing back: every
// exported field of Options and Hooks must be named — as a selector or a
// composite-literal key — by some non-test Go file of the repository
// outside this package (bench/ included).
func TestOptionsFieldsHaveCallers(t *testing.T) {
	self, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	named := callerNames(t, self)
	for _, typ := range []reflect.Type{reflect.TypeOf(Options{}), reflect.TypeOf(Hooks{})} {
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() && !named[f.Name] {
				t.Errorf("sharing.%s.%s is named by no non-test file outside internal/sharing: wire it to a caller or delete it", typ.Name(), f.Name)
			}
		}
	}
}

// TestExportsHaveCallers keeps dead entry points from growing back: every
// exported package-level function of the replay packages and of the
// request-to-tables path (sim, its stream cache, the daemon and the
// cluster) must be called as pkg.Func by some non-test Go file outside
// its package (bench/ included). A package cannot name itself with its
// own qualifier, so any qualified use found is an outside caller.
func TestExportsHaveCallers(t *testing.T) {
	named := callerNames(t, "")
	fset := token.NewFileSet()
	for _, dir := range []string{".", "../oracle", "../predictor",
		"../sim", "../sim/streamcache", "../server", "../cluster"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Recv != nil || !fn.Name.IsExported() {
					continue
				}
				if q := f.Name.Name + "." + fn.Name.Name; !named[q] {
					t.Errorf("%s (%s) is called by no non-test file outside its package: give it a caller or delete it", q, path)
				}
			}
		}
	}
}
