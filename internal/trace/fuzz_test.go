package trace

import (
	"bytes"
	"slices"
	"testing"
)

// fuzzAccesses is the seed content of the decoder fuzz targets: every
// core bit, both ops, and PC and address deltas of both signs and of
// every varint length.
var fuzzAccesses = []Access{
	{Core: 0, PC: 0x400000, Addr: 0x7fff0000},
	{Core: 1, Write: true, PC: 0x400004, Addr: 0x7fff0040},
	{Core: 127, Write: true, PC: 0, Addr: 0},
	{Core: 5, PC: 1 << 62, Addr: 1 << 47},
	{Core: 64, PC: 1<<64 - 1, Addr: 1<<64 - 1},
	{Core: 5, PC: 1, Addr: 3},
}

// encodeBinary is the Writer encoding of accs.
func encodeBinary(t testing.TB, accs []Access) []byte {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, a := range accs {
		if err := w.Write(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// encodeText is the WriteText encoding of accs.
func encodeText(t testing.TB, accs []Access) []byte {
	var buf bytes.Buffer
	if _, err := WriteText(&buf, NewSliceReader(accs)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// addTruncations seeds f with enc and with its prefixes cut inside the
// first record, in the middle and one byte short of the end.
func addTruncations(f *testing.F, enc []byte) {
	for _, n := range []int{len(enc), len(enc) - 1, len(enc) / 2, 9, 8, 3, 0} {
		f.Add(enc[:n])
	}
}

// FuzzFileReader feeds arbitrary bytes to the binary trace decoder (trace
// files are user input to llcstat and the stream builders). It must never
// panic, and any input it accepts — a good header, then whole records up
// to a clean EOF — must re-encode through Writer and decode back to the
// same accesses.
func FuzzFileReader(f *testing.F) {
	addTruncations(f, encodeBinary(f, fuzzAccesses))
	f.Add([]byte(magic + "\x02\x80\x80\x80\x80\x80\x80\x80\x80\x80\x80\x01\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := NewFileReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		accs, err := Collect(fr)
		if err != nil {
			return
		}
		back, err := NewFileReader(bytes.NewReader(encodeBinary(t, accs)))
		if err != nil {
			t.Fatalf("re-encoded header rejected: %v", err)
		}
		again, err := Collect(back)
		if err != nil {
			t.Fatalf("decoding the re-encoding: %v", err)
		}
		if !slices.Equal(again, accs) {
			t.Fatalf("re-encoded accesses decode differently:\n%v\n%v", accs, again)
		}
	})
}

// FuzzTextReader feeds arbitrary bytes to the text trace decoder. It must
// never panic, and any input it accepts must re-encode through WriteText
// and decode back to the same accesses.
func FuzzTextReader(f *testing.F) {
	enc := encodeText(f, fuzzAccesses)
	addTruncations(f, enc)
	f.Add(append([]byte("# comment\n\n  3 w 0X1a 017\r\n"), enc...))
	f.Add([]byte("128 R 0x0 0x0\n"))
	f.Add([]byte("1 R 0x1_0 0x0\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		accs, err := Collect(NewTextReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		again, err := Collect(NewTextReader(bytes.NewReader(encodeText(t, accs))))
		if err != nil {
			t.Fatalf("decoding the re-encoding: %v", err)
		}
		if !slices.Equal(again, accs) {
			t.Fatalf("re-encoded accesses decode differently:\n%v\n%v", accs, again)
		}
	})
}
