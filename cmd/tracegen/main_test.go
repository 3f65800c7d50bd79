package main

import (
	"os"
	"path/filepath"
	"testing"

	"sharellc/internal/trace"
)

func TestList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateBinary(t *testing.T) {
	out := filepath.Join(t.TempDir(), "w.trc")
	if err := run([]string{"-workload", "water", "-scale", "0.01", "-o", out}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := trace.NewFileReader(f)
	if err != nil {
		t.Fatal(err)
	}
	accs, err := trace.Collect(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(accs) == 0 {
		t.Fatal("empty trace written")
	}
}

func TestGenerateText(t *testing.T) {
	out := filepath.Join(t.TempDir(), "w.txt")
	if err := run([]string{"-workload", "water", "-scale", "0.01", "-format", "text", "-o", out}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	accs, err := trace.Collect(trace.NewTextReader(f))
	if err != nil {
		t.Fatal(err)
	}
	if len(accs) == 0 {
		t.Fatal("empty text trace written")
	}
}

func TestDeterministicOutput(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.trc")
	b := filepath.Join(dir, "b.trc")
	for _, out := range []string{a, b} {
		if err := run([]string{"-workload", "water", "-scale", "0.01", "-seed", "9", "-o", out}); err != nil {
			t.Fatal(err)
		}
	}
	ab, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(ab) != string(bb) {
		t.Error("same seed produced different trace files")
	}
}

func TestTracegenErrors(t *testing.T) {
	cases := [][]string{
		{},                                       // missing workload
		{"-workload", "doom"},                    // unknown workload
		{"-workload", "water", "-format", "xml"}, // bad format
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded", args)
		}
	}
}
