package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// runOK executes the CLI entry point with args and returns its stdout.
// All simulation-bearing invocations use -scale 0.02 and a 2-workload
// subset so the whole file runs in a couple of seconds.
func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var b strings.Builder
	if err := run(&b, args); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return b.String()
}

// fast prepends the standard scaling flags. The stream cache is off so
// tests never touch (or depend on) the user's snapshot directory.
func fast(args ...string) []string {
	return append([]string{"-quiet", "-scale", "0.02", "-workloads", "canneal,swaptions", "-cachedir", "off"}, args...)
}

func TestConfigTable(t *testing.T) {
	out := runOK(t, "-exp", "config")
	for _, want := range []string{"T1", "cores", "L1D", "LLC", "lru"} {
		if !strings.Contains(out, want) {
			t.Errorf("config table missing %q", want)
		}
	}
}

func TestSuiteTable(t *testing.T) {
	out := runOK(t, "-exp", "suite")
	for _, want := range []string{"canneal", "barnes", "swim", "parsec", "splash2", "specomp"} {
		if !strings.Contains(out, want) {
			t.Errorf("suite table missing %q", want)
		}
	}
}

func TestExperimentsSmoke(t *testing.T) {
	for _, exp := range []string{"f1", "f3", "f9"} {
		out := runOK(t, fast("-exp", exp)...)
		if !strings.Contains(out, "canneal") || !strings.Contains(out, "swaptions") {
			t.Errorf("%s output missing workloads:\n%s", exp, out)
		}
	}
}

func TestExtensionExperimentsSmoke(t *testing.T) {
	out := runOK(t, fast("-exp", "c1")...)
	if !strings.Contains(out, "MESI") {
		t.Errorf("c1 output malformed:\n%s", out)
	}
	out = runOK(t, fast("-exp", "c2", "-llc", "0.25")...)
	if !strings.Contains(out, "cold") {
		t.Errorf("c2 output malformed:\n%s", out)
	}
	out = runOK(t, fast("-exp", "m1", "-llc", "0.25")...)
	if !strings.Contains(out, "mix(") {
		t.Errorf("m1 output malformed:\n%s", out)
	}
	out = runOK(t, fast("-exp", "a4", "-llc", "0.25", "-policies", "lru")...)
	if !strings.Contains(out, "horizon") {
		t.Errorf("a4 output malformed:\n%s", out)
	}
}

func TestMarkdownOutput(t *testing.T) {
	out := runOK(t, "-exp", "config", "-md")
	if !strings.Contains(out, "### T1") || !strings.Contains(out, "|---|") {
		t.Errorf("markdown output malformed:\n%s", out)
	}
}

func TestF5BothSizes(t *testing.T) {
	out := runOK(t, fast("-exp", "f5", "-policies", "lru", "-llc", "0.25")...)
	if strings.Count(out, "oracle study") != 2 {
		t.Errorf("f5 did not emit both LLC sizes:\n%s", out)
	}
	if !strings.Contains(out, "mean miss reduction") {
		t.Error("f5 missing summary note")
	}
}

func TestCSVOutput(t *testing.T) {
	out := runOK(t, fast("-exp", "f1", "-csv")...)
	if !strings.HasPrefix(out, "workload,") {
		t.Errorf("CSV output missing header: %q", out[:40])
	}
	if strings.Contains(out, "==") {
		t.Error("CSV output contains table decoration")
	}
}

func TestStrengthFlag(t *testing.T) {
	out := runOK(t, fast("-exp", "f5", "-policies", "lru", "-llc", "0.25", "-strength", "insert-only")...)
	if !strings.Contains(out, "insert-only") {
		t.Error("strength not reflected in title")
	}
}

func TestErrors(t *testing.T) {
	cases := [][]string{
		{"-exp", "nonesuch"},
		{"-strength", "bogus"},
		{"-workloads", "doom", "-exp", "f1"},
		{"-exp", "f4", "-scale", "-1"},
	}
	for _, args := range cases {
		var b strings.Builder
		if err := run(&b, args); err == nil {
			t.Errorf("run(%v) succeeded", args)
		}
	}
}

// TestGeometryBounds: the CLI applies the job API's LLC bounds before
// any stream is prepared, so a geometry some policy cannot run — 128
// ways, a 3 MB LLC (3072 sets at 16 ways), more than 32 MB — fails
// naming the bound, for every experiment.
func TestGeometryBounds(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-ways", "128"}, "power of two in [1, 64]"},
		{[]string{"-ways", "12"}, "power of two in [1, 64]"},
		{[]string{"-llc", "3"}, "not a power of two"},
		{[]string{"-llc", "64"}, "(0, 32]"},
	} {
		for _, exp := range []string{"f1", "f7", "config"} {
			args := fast(append([]string{"-exp", exp}, c.args...)...)
			var b strings.Builder
			err := run(&b, args)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("run(%v) = %v, want an error naming %q", args, err, c.want)
			}
			if b.Len() != 0 {
				t.Errorf("run(%v) wrote output before failing", args)
			}
		}
	}
}

func TestJSONOutput(t *testing.T) {
	out := runOK(t, fast("-exp", "f1", "-json")...)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 1 {
		t.Fatalf("f1 -json emitted %d lines, want 1", len(lines))
	}
	var tbl struct {
		Title   string     `json:"title"`
		Headers []string   `json:"headers"`
		Rows    [][]string `json:"rows"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &tbl); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, out)
	}
	if !strings.Contains(tbl.Title, "F1") {
		t.Errorf("title = %q, want F1 table", tbl.Title)
	}
	if len(tbl.Rows) != 2 || tbl.Rows[0][0] != "canneal" {
		t.Errorf("rows malformed: %v", tbl.Rows)
	}
	if len(tbl.Headers) == 0 || tbl.Headers[0] != "workload" {
		t.Errorf("headers malformed: %v", tbl.Headers)
	}
}

// TestUnknownExperimentUsage is the regression test for the silent-exit
// bug class: an unknown -exp id must fail with a message that names the
// valid ids, never run zero experiments successfully.
func TestUnknownExperimentUsage(t *testing.T) {
	var b strings.Builder
	err := run(&b, []string{"-exp", "f6"})
	if err == nil {
		t.Fatal("run with unknown experiment succeeded")
	}
	for _, want := range []string{"unknown experiment", "f6", "valid ids", "f1", "a5"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
	if b.Len() != 0 {
		t.Errorf("unknown experiment still produced output: %q", b.String())
	}
}

// TestUnknownWorkloadUsage: an unknown -workloads name must fail up
// front, before any simulation, and list the valid names.
func TestUnknownWorkloadUsage(t *testing.T) {
	var b strings.Builder
	err := run(&b, []string{"-exp", "f1", "-workloads", "canneal,doom"})
	if err == nil {
		t.Fatal("run with unknown workload succeeded")
	}
	for _, want := range []string{"doom", "valid workloads", "canneal", "swaptions"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
	if b.Len() != 0 {
		t.Errorf("unknown workload still produced output: %q", b.String())
	}
}

// TestUnknownPolicyUsage: an unknown -policies name fails up front, for
// an experiment that reads the list (f5) and one that does not (f4),
// before any stream is prepared: the snapshot directory stays empty.
func TestUnknownPolicyUsage(t *testing.T) {
	for _, exp := range []string{"f5", "f4"} {
		dir := t.TempDir()
		var b strings.Builder
		err := run(&b, []string{"-exp", exp, "-policies", "lru,bogus", "-scale", "0.02", "-workloads", "swaptions", "-cachedir", dir, "-quiet"})
		if err == nil || !strings.Contains(err.Error(), `unknown policy "bogus"`) {
			t.Errorf("-exp %s: err = %v, want an unknown-policy error", exp, err)
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 0 || b.Len() != 0 {
			t.Errorf("-exp %s: an unknown policy still prepared %d snapshot entries and printed %q", exp, len(entries), b.String())
		}
	}
}

func TestBadFlagRejected(t *testing.T) {
	// The replay engine has no tier switches left: the deleted -kernel,
	// -tracker and -simd flags are unknown flags like any other.
	for _, args := range [][]string{{"-definitely-not-a-flag"}, {"-kernel", "scalar"}, {"-tracker", "struct"}, {"-simd", "off"}} {
		var b strings.Builder
		if err := run(&b, args); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%v: err = %v, want an undefined-flag error", args, err)
		}
	}
}

// TestCachedirWarmRunIdentical: a -cachedir run populates snapshot files
// and a second invocation (a fresh process in spirit: nothing shared but
// the directory) produces byte-identical output from them.
func TestCachedirWarmRunIdentical(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-quiet", "-scale", "0.02", "-workloads", "canneal,swaptions",
		"-cachedir", dir, "-exp", "f1", "-json"}
	cold := runOK(t, args...)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	snaps := 0
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".sllc") {
			snaps++
		}
	}
	if snaps != 2 {
		t.Fatalf("cold run left %d snapshots, want 2", snaps)
	}
	if warm := runOK(t, args...); warm != cold {
		t.Errorf("warm run output differs from cold run:\n%s\nvs\n%s", warm, cold)
	}
}
