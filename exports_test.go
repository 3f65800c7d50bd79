package sharellc_test

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names the exported names of internal/ that keep no
// non-test user outside their package, each with the reason it stays.
// A key is pkg.Name, pkg.Type.Method or pkg.Type.Field; pkg.Type also
// covers every method of the type.
var exportAllowlist = map[string]string{
	"cache.NewSystem":               "builds the inclusive reference that sim.TestDecouplingApproximation compares the decoupled stream against (DESIGN.md key decision 1)",
	"cache.System":                  "the inclusive reference of sim.TestDecouplingApproximation (DESIGN.md key decision 1)",
	"cache.SetAssoc.Access":         "the scalar reference path the policy, core, reuse and sharing tests replay against",
	"cache.SetAssoc.HasBatchKernel": "kernel-binding probe: reports whether a policy bound its batch kernel",
	"rng.Source.Uint64":             "the raw 64-bit draw the policy and trace tests take PCs and addresses from",
	"sharing.Tracked":               "the zero Tier, which callers get by leaving Options.Tier unset; the reuse and mem tier tests name it",
	"streamcache.Options.BuildHook": "test seam: the cluster tests count and stall stream builds through it",

	// Types no outside file names, kept exported because an exported func,
	// method or field that outside callers use has them in its signature.
	"cache.Hierarchy":      "returned by cache.FilterStream",
	"cache.Result":         "returned by SetAssoc.Access",
	"core.LaneHinter":      "the parameter of Protector.LRUKernel, which oracle and predictor lanes call",
	"phase.Result":         "returned by phase.Analyze",
	"predictor.Address":    "returned by predictor.NewAddress",
	"predictor.Coherence":  "returned by predictor.NewCoherence",
	"predictor.Driven":     "returned by predictor.NewDriven",
	"predictor.PC":         "returned by predictor.NewPC",
	"predictor.Tournament": "returned by predictor.NewTournament",
	"reuse.Histogram":      "the type of reuse.Profile's Private and Shared fields",
	"reuse.Profile":        "returned by reuse.Analyze",
	"server.Server":        "returned by server.New",
	"sim.CoherenceRow":     "returned by Suite.CoherenceCharacterize",
	"sim.Experiment":       "returned by sim.Experiments and sim.ExperimentByID",
	"sim.StreamProvider":   "the type of sim.Config.Streams",
	"trace.FileReader":     "returned by trace.NewFileReader",
	"trace.Interleaver":    "returned by trace.NewInterleaver",
	"trace.SliceReader":    "returned by trace.NewSliceReader",
	"trace.TextReader":     "returned by trace.NewTextReader",
	"trace.Writer":         "returned by trace.NewWriter",
}

// stdInterfaces are the standard interfaces whose methods the standard
// library calls on a caller's behalf (fmt calls String, errors call
// Error, encoding/json the marshalers, net/http ServeHTTP): a method that
// implements one of them has a caller outside the repository.
var stdInterfaces = [][2]string{
	{"fmt", "Stringer"},
	{"encoding/json", "Marshaler"},
	{"encoding/json", "Unmarshaler"},
	{"net/http", "Handler"},
}

// facade is the import path of the root package, the library's public API.
const facade = "sharellc"

// listedPackage is the part of `go list -json` output the guard reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
}

// checkedPackage is one non-test package of the repository, type-checked
// from source.
type checkedPackage struct {
	path string
	pkg  *types.Package
	info *types.Info
}

// goList runs `go list -export -deps -json ./...` in dir and returns the
// packages in dependency order.
func goList(t *testing.T, dir string) []listedPackage {
	t.Helper()
	cmd := exec.Command("go", "list", "-export", "-deps", "-json", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.String())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// loadRepo type-checks every non-test package of both modules, the root
// and bench/, from source in dependency order. A repository import
// resolves to the package checked here, so every use of a name resolves
// to the one object its declaration made; a standard-library import
// comes from the compiler's export data. It also returns the importer,
// through which the standard interfaces are looked up.
func loadRepo(t *testing.T) ([]*checkedPackage, types.Importer) {
	t.Helper()
	var listed []listedPackage
	for _, dir := range []string{".", "bench"} {
		listed = append(listed, goList(t, dir)...)
	}
	exports := map[string]string{}
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	checked := map[string]*checkedPackage{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if cp, ok := checked[path]; ok {
			return cp.pkg, nil
		}
		return std.Import(path)
	})
	var pkgs []*checkedPackage
	for _, p := range listed {
		if p.Standard || checked[p.ImportPath] != nil {
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		cp := &checkedPackage{path: p.ImportPath, info: &types.Info{Uses: map[*ast.Ident]types.Object{}}}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(p.ImportPath, fset, files, cp.info)
		if err != nil {
			t.Fatalf("type-check %s: %v", p.ImportPath, err)
		}
		cp.pkg = pkg
		checked[p.ImportPath] = cp
		pkgs = append(pkgs, cp)
	}
	return pkgs, imp
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// origin maps an instantiated generic method or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// interfaceOf returns the interface an interface method belongs to, or nil
// for a concrete method or any other object.
func interfaceOf(obj types.Object) *types.Interface {
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	iface, _ := recv.Type().Underlying().(*types.Interface)
	return iface
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

// TestInternalExportsHaveCallers keeps dead names from growing back in
// every package under internal/. It type-checks the non-test files of both
// modules (bench/, cmd/, examples/ and the root facade are callers) and
// fails, in one subtest each, on
//
//   - names: an exported package-level func, type, const or var that no
//     non-test file outside its package uses;
//   - methods: an exported method that no such file calls, unless its type
//     implements an interface whose method a non-test file selects (a
//     named interface, an anonymous one in a type assertion, a standard
//     interface in stdInterfaces, or an interface the root facade names,
//     all of whose methods are the library's API);
//   - knobs: an exported field of a struct named *Options, *Config or *Hooks (the
//     knobs and callbacks a caller sets) that no such file names, as a
//     selector or a composite-literal key.
//
// A use counts only when it resolves to the declared object, so a dead
// method is not kept alive by a live one of the same name elsewhere. The
// message says whether its own package uses the name (unexport it) or
// nothing does (delete it). An exported type that stays only because an
// exported func, method or field with outside users has it in its
// signature is named in exportAllowlist.
func TestInternalExportsHaveCallers(t *testing.T) {
	pkgs, imp := loadRepo(t)
	outside := map[types.Object]bool{} // used by a non-test file of another package
	inside := map[types.Object]bool{}  // used by a non-test file of its own package
	// selected maps each interface a non-test file selects a method of to
	// the names it selects.
	selected := map[*types.Interface]map[string]bool{}
	selectMethod := func(iface *types.Interface, name string) {
		if selected[iface] == nil {
			selected[iface] = map[string]bool{}
		}
		selected[iface][name] = true
	}
	var named []*types.Named // every package-level named type of the repository
	for _, cp := range pkgs {
		for _, obj := range cp.info.Uses {
			obj = origin(obj)
			if obj.Pkg() == nil {
				continue
			}
			if obj.Pkg() == cp.pkg {
				inside[obj] = true
			} else {
				outside[obj] = true
			}
			if iface := interfaceOf(obj); iface != nil {
				selectMethod(iface, obj.Name())
			}
			// An interface the root facade names is the library's API:
			// its users may call every method of it.
			if tn, ok := obj.(*types.TypeName); ok && cp.path == facade && types.IsInterface(tn.Type()) {
				iface := tn.Type().Underlying().(*types.Interface)
				for i := 0; i < iface.NumMethods(); i++ {
					selectMethod(iface, iface.Method(i).Name())
				}
			}
		}
		scope := cp.pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok && !types.IsInterface(n) {
					named = append(named, n)
				}
			}
		}
	}
	for _, si := range stdInterfaces {
		pkg, err := imp.Import(si[0])
		if err != nil {
			t.Fatal(err)
		}
		iface := pkg.Scope().Lookup(si[1]).Type().Underlying().(*types.Interface)
		for i := 0; i < iface.NumMethods(); i++ {
			selectMethod(iface, iface.Method(i).Name())
		}
	}
	selectMethod(types.Universe.Lookup("error").Type().Underlying().(*types.Interface), "Error")
	// reached holds the methods, promoted ones included, that implement a
	// selected interface method.
	reached := map[types.Object]bool{}
	for iface, names := range selected {
		for _, n := range named {
			for _, typ := range []types.Type{n, types.NewPointer(n)} {
				if !types.Implements(typ, iface) {
					continue
				}
				for name := range names {
					m, _, _ := types.LookupFieldOrMethod(typ, false, n.Obj().Pkg(), name)
					reached[origin(m)] = true
				}
			}
		}
	}

	// dead holds the unused names by the subtest that reports them.
	dead := map[string][]string{}
	checked := false
	allowed := map[string]bool{} // allowlist entries that excused a name
	for _, cp := range pkgs {
		if !strings.HasPrefix(cp.path, "sharellc/internal/") {
			continue
		}
		checked = true
		pkgName := cp.pkg.Name()
		// report records an unused name unless the allowlist excuses it by
		// its own key or by its receiver's.
		report := func(obj types.Object, key, recv, what, kind string) {
			for _, k := range []string{key, recv} {
				if _, ok := exportAllowlist[k]; ok {
					allowed[k] = true
					return
				}
			}
			fix := "no non-test file uses it: delete it"
			if inside[obj] {
				fix = "only its own package uses it: unexport it"
			}
			dead[kind] = append(dead[kind], key+" ("+cp.path+"): "+what+" that no non-test file outside its package uses; "+fix)
		}
		scope := cp.pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			key := pkgName + "." + name
			if obj.Exported() && !outside[obj] {
				report(obj, key, "", "exported "+objKind(obj), "names")
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < n.NumMethods(); i++ {
				m := n.Method(i)
				if m.Exported() && !outside[m] && !reached[m] {
					report(m, key+"."+m.Name(), key, "exported method", "methods")
				}
			}
			st, ok := n.Underlying().(*types.Struct)
			if !ok || !obj.Exported() || !knobStruct(name) {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() && !outside[f] {
					report(f, key+"."+f.Name(), "", "knob", "knobs")
				}
			}
		}
	}
	if !checked {
		t.Fatal("found no package under internal/")
	}
	for _, kind := range []string{"names", "methods", "knobs"} {
		t.Run(kind, func(t *testing.T) {
			sort.Strings(dead[kind])
			for _, d := range dead[kind] {
				t.Error(d)
			}
		})
	}
	for k := range exportAllowlist {
		if !allowed[k] {
			t.Errorf("allowlist entry %s excuses nothing: remove it", k)
		}
	}
}

// objKind names the kind of a package-level object.
func objKind(obj types.Object) string {
	switch obj.(type) {
	case *types.Func:
		return "func"
	case *types.TypeName:
		return "type"
	case *types.Const:
		return "const"
	default:
		return "var"
	}
}
