package sharellc_test

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

// ciTestStep is one `go test` invocation of the CI workflow that selects
// tests by name.
type ciTestStep struct {
	line     string
	flag     string // "-run" or "-fuzz"
	pattern  string
	packages []string // as written: ./dir or .
}

// ciTestSteps returns every -run and -fuzz selection of the `go test`
// commands in a workflow file. A command is found wherever "go test"
// starts on a line, so both `run: go test ...` and the lines of a
// `run: |` block count. Words split at blanks and lose their quotes,
// which holds while no pattern contains a blank.
func ciTestSteps(workflow string) []ciTestStep {
	var steps []ciTestStep
	for _, line := range strings.Split(workflow, "\n") {
		i := strings.Index(line, "go test ")
		if i < 0 {
			continue
		}
		words := strings.Fields(line[i+len("go test "):])
		var pkgs []string
		sel := map[string]string{}
		for j := 0; j < len(words); j++ {
			w := strings.Trim(words[j], `'"`)
			switch {
			case w == "." || strings.HasPrefix(w, "./"):
				pkgs = append(pkgs, w)
			case w == "-run" || w == "-fuzz":
				if j+1 < len(words) {
					sel[w] = strings.Trim(words[j+1], `'"`)
					j++
				}
			case strings.HasPrefix(w, "-run=") || strings.HasPrefix(w, "-fuzz="):
				flag, pattern, _ := strings.Cut(w, "=")
				sel[flag] = pattern
			}
		}
		for _, flag := range []string{"-run", "-fuzz"} {
			pattern, ok := sel[flag]
			// -run '^$' is the idiom for "no tests" beside a -fuzz target.
			if !ok || (flag == "-run" && pattern == "^$") {
				continue
			}
			steps = append(steps, ciTestStep{strings.TrimSpace(line), flag, pattern, pkgs})
		}
	}
	return steps
}

// testFuncs lists the top-level Test and Fuzz functions declared in the
// _test.go files of dir, by kind.
func testFuncs(t *testing.T, dir string) map[string][]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	funcs := map[string][]string{}
	fset := token.NewFileSet()
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil {
				continue
			}
			if kind := testFuncKind(fn.Name.Name); kind != "" {
				funcs[kind] = append(funcs[kind], fn.Name.Name)
			}
		}
	}
	return funcs
}

// topLevelAlternatives splits a regular expression at the | operators
// outside any group or character class.
func topLevelAlternatives(pattern string) []string {
	var alts []string
	depth, inClass, start := 0, false, 0
	for i := 0; i < len(pattern); i++ {
		switch c := pattern[i]; {
		case c == '\\':
			i++
		case inClass:
			inClass = c != ']'
		case c == '[':
			inClass = true
		case c == '(':
			depth++
		case c == ')':
			depth--
		case c == '|' && depth == 0:
			alts = append(alts, pattern[start:i])
			start = i + 1
		}
	}
	return append(alts, pattern[start:])
}

// TestCIPatternsSelectTests fails when a -run or -fuzz pattern of
// .github/workflows/ci.yml selects nothing in a package its command
// names, or when one of the pattern's top-level alternatives selects
// nothing in any of them: a CI step whose tests were renamed or deleted
// passes vacuously otherwise. Test functions are listed by parsing the
// packages' _test.go files; -run matches Test and Fuzz functions, -fuzz
// only Fuzz ones, and only the pattern's first /-separated element (the
// top-level name) is checked. A ./dir/... argument is not expanded: a
// command that selects by name lists its packages.
func TestCIPatternsSelectTests(t *testing.T) {
	workflow, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	steps := ciTestSteps(string(workflow))
	if len(steps) < 5 {
		t.Fatalf("found %d name-selecting go test commands in ci.yml; the parser no longer sees them", len(steps))
	}
	kinds := map[string][]string{"-run": {"Test", "Fuzz"}, "-fuzz": {"Fuzz"}}
	for _, step := range steps {
		if len(step.packages) == 0 {
			t.Errorf("%q names no package", step.line)
			continue
		}
		top, _, _ := strings.Cut(step.pattern, "/")
		re, err := regexp.Compile(top)
		if err != nil {
			t.Errorf("%q: %s %q: %v", step.line, step.flag, step.pattern, err)
			continue
		}
		var names []string // every selectable name across the named packages
		for _, arg := range step.packages {
			if strings.HasSuffix(arg, "...") {
				t.Errorf("%q: %s selects by name in %s; list the packages instead", step.line, step.flag, arg)
				continue
			}
			matched := false
			funcs := testFuncs(t, filepath.Clean(arg))
			for _, kind := range kinds[step.flag] {
				for _, name := range funcs[kind] {
					names = append(names, name)
					matched = matched || re.MatchString(name)
				}
			}
			if !matched {
				t.Errorf("%q: %s %q selects nothing in %s", step.line, step.flag, step.pattern, arg)
			}
		}
		for _, alt := range topLevelAlternatives(top) {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("%q: alternative %q: %v", step.line, alt, err)
				continue
			}
			matched := false
			for _, name := range names {
				matched = matched || re.MatchString(name)
			}
			if !matched {
				t.Errorf("%q: alternative %q of %s %q selects nothing in %s", step.line, alt, step.flag, step.pattern, strings.Join(step.packages, " "))
			}
		}
	}
}
