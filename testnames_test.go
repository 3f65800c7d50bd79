package sharellc_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"
)

// testFuncKind returns the go test prefix (Test, Fuzz or Benchmark) a
// top-level function name is recognized by, or "" for any other name.
func testFuncKind(name string) string {
	for _, prefix := range []string{"Test", "Fuzz", "Benchmark"} {
		if rest, ok := strings.CutPrefix(name, prefix); ok {
			if r, _ := utf8.DecodeRuneInString(rest); rest == "" || !unicode.IsLower(r) {
				return prefix
			}
		}
	}
	return ""
}

// TestNoTestNameInTwoPackages fails when a Test, Fuzz or Benchmark name is
// declared in more than one package of this module. `go test ./... -run`
// and the -run patterns of CI select by name, so a shared name runs
// unrelated tests together and makes a report ambiguous about which one
// failed. Directories holding their own go.mod (bench/) are other modules
// and are skipped.
func TestNoTestNameInTwoPackages(t *testing.T) {
	declared := map[string]map[string]bool{} // name -> directories
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || testFuncKind(fn.Name.Name) == "" {
				continue
			}
			if declared[fn.Name.Name] == nil {
				declared[fn.Name.Name] = map[string]bool{}
			}
			declared[fn.Name.Name][filepath.Dir(path)] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(declared) == 0 {
		t.Fatal("found no test functions")
	}
	for name, dirs := range declared {
		if len(dirs) < 2 {
			continue
		}
		var ds []string
		for d := range dirs {
			ds = append(ds, d)
		}
		sort.Strings(ds)
		t.Errorf("%s is declared in %d packages (%s): give each a distinct name", name, len(ds), strings.Join(ds, ", "))
	}
}
