package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"sharellc/internal/trace"
)

// writeTrace writes a small binary trace with cross-core sharing.
func writeTrace(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.trc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := trace.NewWriter(f)
	for i := 0; i < 2000; i++ {
		a := trace.Access{
			Core:  uint8(i % 4),
			Write: i%3 == 0,
			PC:    0x400 + uint64(i%8)*4,
			Addr:  trace.Addr(uint64(i%300) * trace.BlockSize),
		}
		if err := w.Write(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestBasicStats(t *testing.T) {
	if err := run([]string{writeTrace(t)}); err != nil {
		t.Fatal(err)
	}
}

func TestFilterMode(t *testing.T) {
	if err := run([]string{"-filter", "-llc", "0.25", writeTrace(t)}); err != nil {
		t.Fatal(err)
	}
}

func TestTextMode(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.txt")
	var buf bytes.Buffer
	accs := []trace.Access{
		{Core: 0, Addr: 0},
		{Core: 1, Write: true, Addr: 64},
	}
	if _, err := trace.WriteText(&buf, trace.NewSliceReader(accs)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-text", path}); err != nil {
		t.Fatal(err)
	}
}

func TestLLCStatErrors(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("missing file accepted")
	}
	if err := run([]string{"/nonexistent/file"}); err == nil {
		t.Error("nonexistent file accepted")
	}
	// A text file fed to the binary reader must fail on the magic check.
	path := filepath.Join(t.TempDir(), "bad.trc")
	if err := os.WriteFile(path, []byte("this is not a trace file"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{path}); err == nil {
		t.Error("bad magic accepted")
	}
}
