package sharellc_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names the exported entry points of internal/ that keep no
// non-test caller outside their package, each with the reason it stays.
// A key is pkg.Func, pkg.Type.Method or pkg.Type.Field; pkg.Type alone
// covers every method of the type.
var exportAllowlist = map[string]string{
	"cache.NewSystem":               "builds the inclusive reference that sim.TestDecouplingApproximation compares the decoupled stream against (DESIGN.md key decision 1)",
	"cache.System":                  "the inclusive reference of sim.TestDecouplingApproximation (DESIGN.md key decision 1)",
	"cache.SetAssoc.HasBatchKernel": "kernel-binding probe: reports whether a policy bound its batch kernel",
	"server.Config.Runner":          "test seam: replaces the in-process experiment runner",
	"streamcache.Options.BuildHook": "test seam: observes stream builds",
}

// stdInterfaceMethods are the methods a type exports to satisfy a standard
// interface (fmt.Stringer, error, json.Marshaler, json.Unmarshaler,
// http.Handler), which callers reach through the interface.
var stdInterfaceMethods = map[string]bool{
	"String": true, "Error": true, "MarshalJSON": true, "UnmarshalJSON": true, "ServeHTTP": true,
}

// goFile is one parsed non-test Go file and the directory (package) it
// belongs to.
type goFile struct {
	dir string
	f   *ast.File
}

// parseRepo parses every non-test Go file of the repository, bench/
// included and its build outputs excluded.
func parseRepo(t *testing.T) []goFile {
	t.Helper()
	var files []goFile
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata" || path == filepath.Join("bench", "out")) {
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
		files = append(files, goFile{dir: filepath.Dir(path), f: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// knobStruct reports whether a struct type's fields are knobs the guard
// checks.
func knobStruct(name string) bool {
	for _, suffix := range []string{"Options", "Config", "Hooks"} {
		if strings.HasSuffix(name, suffix) {
			return true
		}
	}
	return false
}

// recvName returns the type name of a method receiver.
func recvName(e ast.Expr) string {
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

// TestInternalExportsHaveCallers keeps dead entry points and dead knobs from
// growing back in every package under internal/. It fails on
//
//   - an exported package-level func that no non-test file outside its
//     package names as pkg.Func;
//   - an exported method whose name no such file selects, unless the name
//     is a method of an interface declared in the repository or of a
//     standard interface in stdInterfaceMethods;
//   - an exported field of a struct named *Options, *Config or *Hooks (the
//     knobs and callbacks a caller sets) that no such file names, as a
//     selector or a composite-literal key.
//
// Matching is by name, without type information: an unrelated x.Name
// counts as a caller, so the guard can miss a dead name but never raises a
// false alarm. A package cannot name itself with its own qualifier, so any
// qualified use found is an outside caller. Types, consts and vars are out
// of scope: exported constructors return the types.
func TestInternalExportsHaveCallers(t *testing.T) {
	files := parseRepo(t)
	usedBy := map[string]map[string]bool{} // name -> directories naming it
	use := func(name, dir string) {
		if usedBy[name] == nil {
			usedBy[name] = map[string]bool{}
		}
		usedBy[name][dir] = true
	}
	ifaceMethods := map[string]bool{}
	for _, gf := range files {
		ast.Inspect(gf.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				use(n.Sel.Name, gf.dir)
				if x, ok := n.X.(*ast.Ident); ok {
					use(x.Name+"."+n.Sel.Name, gf.dir)
				}
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					use(id.Name, gf.dir)
				}
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, name := range m.Names {
						ifaceMethods[name.Name] = true
					}
				}
			}
			return true
		})
	}
	// calledOutside reports whether a file outside dir names name.
	calledOutside := func(name, dir string) bool {
		for d := range usedBy[name] {
			if d != dir {
				return true
			}
		}
		return false
	}

	var dead []string
	checked := false
	allowed := map[string]bool{} // allowlist entries that excused a name
	for _, gf := range files {
		if !strings.HasPrefix(gf.dir, "internal"+string(filepath.Separator)) {
			continue
		}
		checked = true
		pkg := gf.f.Name.Name
		// report records a dead name unless the allowlist excuses it by its
		// own key or by its receiver's.
		report := func(key, recv, why string) {
			for _, k := range []string{key, recv} {
				if _, ok := exportAllowlist[k]; ok {
					allowed[k] = true
					return
				}
			}
			dead = append(dead, key+" ("+gf.dir+"): "+why)
		}
		for _, decl := range gf.f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				name := d.Name.Name
				if d.Recv == nil {
					if q := pkg + "." + name; !calledOutside(q, gf.dir) {
						report(q, "", "exported func with no caller outside its package")
					}
					continue
				}
				if ifaceMethods[name] || stdInterfaceMethods[name] || calledOutside(name, gf.dir) {
					continue
				}
				recv := pkg + "." + recvName(d.Recv.List[0].Type)
				report(recv+"."+name, recv, "exported method no file outside its package selects")
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok || !knobStruct(ts.Name.Name) {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, field := range st.Fields.List {
						for _, name := range field.Names {
							if name.IsExported() && !calledOutside(name.Name, gf.dir) {
								report(pkg+"."+ts.Name.Name+"."+name.Name, "", "knob no file outside its package names")
							}
						}
					}
				}
			}
		}
	}
	if !checked {
		t.Fatal("found no package under internal/")
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s: give it a caller, unexport it or delete it", d)
	}
	for k := range exportAllowlist {
		if !allowed[k] {
			t.Errorf("allowlist entry %s excuses nothing: remove it", k)
		}
	}
}
