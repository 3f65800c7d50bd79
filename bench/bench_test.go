package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// TestGoldenMatchesResultsAll ties the seed-1 golden to results_all.txt:
// the F1, F4, F9, C1 and C2 hashes are those of the checked-in tables.
func TestGoldenMatchesResultsAll(t *testing.T) {
	root := repoRoot(t)
	data, err := os.ReadFile(filepath.Join(root, "results_all.txt"))
	if err != nil {
		t.Fatal(err)
	}
	// A rendered table runs from its "== title ==" line up to the next one.
	sections := map[string]string{} // experiment id → hash
	starts := regexp.MustCompile(`(?m)^== `).FindAllIndex(data, -1)
	for i, loc := range starts {
		end := len(data)
		if i+1 < len(starts) {
			end = starts[i+1][0]
		}
		chunk := data[loc[0]:end]
		title := string(chunk[3:bytes.IndexByte(chunk, ':')])
		sections[strings.ToLower(title)] = hashOf(chunk)
	}
	g, err := loadGolden(filepath.Join(root, "bench", "golden"), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ section, exp string }{
		{"policy_sweep", "f1"}, {"policy_sweep", "f4"},
		{"cold_build", "f9"}, {"cold_build", "c1"}, {"cold_build", "c2"},
	} {
		key := request{Exp: c.exp, Seed: 1, Scale: 1}.key() + "#0"
		got, ok := g.Hashes[c.section][key]
		if !ok {
			t.Errorf("golden has no %s entry %s", c.section, key)
			continue
		}
		if want := sections[c.exp]; got != want {
			t.Errorf("%s: golden hash %s, results_all.txt section hashes to %s", c.exp, got, want)
		}
	}
}

// TestMustNotName holds the harness to the surface that stays: the names
// below are due to be deleted, and deleting one must not mean editing the
// benchmark. It also checks that layers.go alone reaches into the program.
func TestMustNotName(t *testing.T) {
	forbidden := []*regexp.Regexp{
		regexp.MustCompile(`-kernel\b`), regexp.MustCompile(`-tracker\b`), regexp.MustCompile(`-simd\b`),
		regexp.MustCompile(`SHARELLC_`),
		regexp.MustCompile(`sharing\.Replay\b`), regexp.MustCompile(`sharing\.ReplayParallel\b`),
		regexp.MustCompile(`cache\.EnableBatchKernels`), regexp.MustCompile(`internal/simd`),
	}
	files, err := filepath.Glob("*")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if f == "bench_test.go" || f == "README.md" || !(strings.HasSuffix(f, ".go") || strings.HasSuffix(f, ".sh")) {
			continue // this file and the README spell the list out
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, re := range forbidden {
			if loc := re.FindIndex(src); loc != nil {
				t.Errorf("%s names %q, which the benchmark must not bind to", f, src[loc[0]:loc[1]])
			}
		}
		if f != "layers.go" && bytes.Contains(src, []byte(`"sharellc/internal/`)) {
			t.Errorf("%s imports the program's packages; every such call belongs in layers.go", f)
		}
	}
}

// TestContract checks BENCHMARK.json against the limits the driver sets.
func TestContract(t *testing.T) {
	c, err := loadContract(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	check := func(kind string, ds []metricDecl, limit int) {
		if len(ds) == 0 || len(ds) > limit {
			t.Errorf("%d %s metrics, want 1 to %d", len(ds), kind, limit)
		}
		for _, d := range ds {
			if !name.MatchString(d.Name) || seen[d.Name] {
				t.Errorf("%s metric name %q is malformed or used twice", kind, d.Name)
			}
			seen[d.Name] = true
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s: better = %q", d.Name, d.Better)
			}
		}
	}
	check("end-to-end", c.EndToEnd, 16)
	check("per-layer", c.PerLayer, 128)
	hasSetup := false
	for _, d := range c.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in s, lower is better")
	}
	if len(c.Workloads) != len(inProcess)+1 {
		t.Errorf("%d workloads declared, the harness has %d", len(c.Workloads), len(inProcess)+1)
	}
	for _, w := range inProcess {
		if !c.hasWorkload(w.name) {
			t.Errorf("workload %s is not declared", w.name)
		}
	}
	if !c.hasWorkload("service_jobs") {
		t.Error("workload service_jobs is not declared")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// → [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if math.Abs(q1-3.5) > 1e-12 || math.Abs(q3-31) > 1e-12 {
		t.Errorf("quartiles = %g, %g, want 3.5, 31", q1, q3)
	}
}

// harness builds the benchmark and the daemon it drives into bench/out/bin,
// where the benchmark looks for them.
func harness(t *testing.T) (bin, root string) {
	t.Helper()
	root = repoRoot(t)
	binDir := filepath.Join(root, "bench", "out", "bin")
	for _, b := range []struct{ dir, pkg, out string }{
		{filepath.Join(root, "bench"), ".", filepath.Join(binDir, "bench")},
		{root, "./cmd/sharesimd", binDir + string(filepath.Separator)},
	} {
		cmd := exec.Command("go", "build", "-o", b.out, b.pkg)
		cmd.Dir = b.dir
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", b.pkg, err, out)
		}
	}
	return filepath.Join(binDir, "bench"), root
}

// runBench runs one workload and returns its result line and exit error.
func runBench(t *testing.T, bin string, args ...string) (result, error) {
	t.Helper()
	out, err := exec.Command(bin, args...).Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
		t.Fatalf("bench %v: last line is not a result: %v\n%s", args, jerr, out)
	}
	return res, err
}

// TestSmoke runs every workload at a twentieth of full size with one
// iteration: first recording a golden, then checking against it, then
// checking against a corrupted copy. service_jobs and the traced run start
// real daemons, so -short leaves them out.
func TestSmoke(t *testing.T) {
	bin, root := harness(t)
	c, err := loadContract(root)
	if err != nil {
		t.Fatal(err)
	}
	goldenDir := t.TempDir()
	base := []string{"-root", root, "-scale", "0.05", "-seconds", "1", "-seed", "1", "-golden", goldenDir}

	if testing.Short() {
		for _, w := range inProcess {
			args := append(base, "-workload", w.name)
			if _, err := runBench(t, bin, append(args, "-update-golden")...); err != nil {
				t.Fatalf("%s: recording: %v", w.name, err)
			}
		}
	} else if out, err := exec.Command(bin, append(base, "-update-golden")...).CombinedOutput(); err != nil {
		t.Fatalf("recording the golden: %v\n%s", err, out)
	}

	sameNames := func(w string, got map[string]metricValue, want []metricDecl) {
		for _, d := range want {
			v, ok := got[d.Name]
			if !ok {
				t.Errorf("%s: declared metric %s was not emitted", w, d.Name)
			} else if v.Unit != d.Unit {
				t.Errorf("%s: %s emitted in %q, declared in %q", w, d.Name, v.Unit, d.Unit)
			}
		}
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics emitted, %d declared", w, len(got), len(want))
		}
	}
	for _, w := range c.workloadNames() {
		if testing.Short() && w == "service_jobs" {
			continue
		}
		res, err := runBench(t, bin, append(base, "-workload", w)...)
		if err != nil || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: exit %v, result %+v", w, err, res)
		}
		sameNames(w, res.Metrics, c.EndToEnd)
		for name, v := range res.Metrics {
			if v.Value == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", w, name)
			}
		}
	}
	if !testing.Short() {
		res, err := runBench(t, bin, append(base, "-workload", "cold_build", "-trace", "1")...)
		if err != nil || !res.Correct {
			t.Errorf("traced cold_build: exit %v, result %+v", err, res)
		}
		sameNames("traced cold_build", res.Metrics, c.PerLayer)
	}

	// One flipped hash must show as a failed check and a non-zero exit.
	path := goldenPath(goldenDir, 1)
	g, err := loadGolden(goldenDir, 1, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	for k, h := range g.Hashes["policy_sweep"] {
		g.Hashes["policy_sweep"][k] = "0" + h[1:]
		if h[0] == '0' {
			g.Hashes["policy_sweep"][k] = "1" + h[1:]
		}
		break
	}
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := runBench(t, bin, append(base, "-workload", "policy_sweep")...)
	if err == nil || res.Correct || res.Failed == 0 {
		t.Errorf("corrupted golden: exit %v, result %+v; want a non-zero exit and failed > 0", err, res)
	}
}
