package trace

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"sharellc/internal/rng"
)

func TestAddrBlock(t *testing.T) {
	cases := []struct {
		addr Addr
		id   uint64
	}{
		{0, 0},
		{1, 0},
		{63, 0},
		{64, 1},
		{65, 1},
		{0xDEADBEEF, 0xDEADBEEF >> 6},
	}
	for _, c := range cases {
		if got := c.addr.BlockID(); got != c.id {
			t.Errorf("Addr(%#x).BlockID() = %d, want %d", uint64(c.addr), got, c.id)
		}
	}
}

func TestAccessString(t *testing.T) {
	a := Access{Core: 3, Write: true, PC: 0x400, Addr: 0x1000}
	s := a.String()
	for _, want := range []string{"c3", "W", "0x400", "0x1000"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	a.Write = false
	if !strings.Contains(a.String(), "R") {
		t.Errorf("read access String() = %q missing R", a.String())
	}
}

func TestSliceReader(t *testing.T) {
	in := []Access{
		{Core: 0, Addr: 64},
		{Core: 1, Addr: 128, Write: true},
	}
	r := NewSliceReader(in)
	out, err := Collect(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0] != in[0] || out[1] != in[1] {
		t.Errorf("Collect = %v, want %v", out, in)
	}
	if _, ok := r.Next(); ok {
		t.Error("exhausted reader returned an access")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	accs := []Access{
		{Core: 0, Write: false, PC: 0x400000, Addr: 0x7fff0000},
		{Core: 1, Write: true, PC: 0x400004, Addr: 0x7fff0040},
		{Core: 127, Write: true, PC: 0, Addr: 0},
		{Core: 5, Write: false, PC: 1 << 62, Addr: 1 << 47},
		{Core: 5, Write: false, PC: 1, Addr: 3},
	}
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
	if w.Count() != uint64(len(accs)) {
		t.Errorf("Count = %d, want %d", w.Count(), len(accs))
	}

	fr, err := NewFileReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect(fr)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(accs) {
		t.Fatalf("decoded %d records, want %d", len(out), len(accs))
	}
	for i := range accs {
		if out[i] != accs[i] {
			t.Errorf("record %d: got %+v want %+v", i, out[i], accs[i])
		}
	}
}

func TestCodecRoundTripProperty(t *testing.T) {
	f := func(cores []uint8, pcs, addrs []uint64, writes []bool) bool {
		n := len(cores)
		for _, s := range []int{len(pcs), len(addrs), len(writes)} {
			if s < n {
				n = s
			}
		}
		accs := make([]Access, n)
		for i := 0; i < n; i++ {
			accs[i] = Access{
				Core:  cores[i] & maxCore,
				Write: writes[i],
				PC:    pcs[i],
				Addr:  Addr(addrs[i]),
			}
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, a := range accs {
			if err := w.Write(a); err != nil {
				return false
			}
		}
		if err := w.Flush(); err != nil {
			return false
		}
		fr, err := NewFileReader(&buf)
		if err != nil {
			return false
		}
		out, err := Collect(fr)
		if err != nil {
			return false
		}
		if len(out) != n {
			return false
		}
		for i := range accs {
			if out[i] != accs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWriterRejectsHugeCore(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Write(Access{Core: 128}); err == nil {
		t.Error("Write accepted core 128")
	}
	// Writer stays failed.
	if err := w.Write(Access{Core: 0}); err == nil {
		t.Error("failed writer accepted further records")
	}
}

func TestReaderRejectsBadMagic(t *testing.T) {
	if _, err := NewFileReader(bytes.NewReader([]byte("NOTATRACE..."))); err != errBadMagic {
		t.Errorf("got err %v, want errBadMagic", err)
	}
}

func TestReaderRejectsShortHeader(t *testing.T) {
	if _, err := NewFileReader(bytes.NewReader([]byte("SH"))); err == nil {
		t.Error("short header accepted")
	}
}

func TestReaderTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Write(Access{Core: 1, PC: 1 << 40, Addr: 1 << 40}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// Chop the last byte off: mid-record truncation must surface as Err.
	raw := buf.Bytes()
	fr, err := NewFileReader(bytes.NewReader(raw[:len(raw)-1]))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := fr.Next(); ok {
		t.Error("truncated record decoded successfully")
	}
	if fr.Err() == nil {
		t.Error("truncated record did not set Err")
	}
}

func TestCleanEOFNoError(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Write(Access{Addr: 64}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	fr, err := NewFileReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := fr.Next(); !ok {
		t.Fatal("first record missing")
	}
	if _, ok := fr.Next(); ok {
		t.Fatal("phantom second record")
	}
	if fr.Err() != nil {
		t.Errorf("clean EOF produced error %v", fr.Err())
	}
}

func TestZigzagRoundTrip(t *testing.T) {
	f := func(v int64) bool { return unzigzag(zigzag(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInterleaverPreservesPerStreamOrder(t *testing.T) {
	mk := func(core uint8, n int) []Access {
		out := make([]Access, n)
		for i := range out {
			out[i] = Access{Core: core, Addr: Addr(i * BlockSize)}
		}
		return out
	}
	s0, s1, s2 := mk(0, 50), mk(1, 30), mk(2, 70)
	il := NewInterleaver([]Reader{
		NewSliceReader(s0), NewSliceReader(s1), NewSliceReader(s2),
	}, 4, rng.New(1))
	out, err := Collect(il)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 150 {
		t.Fatalf("interleaved %d accesses, want 150", len(out))
	}
	next := map[uint8]Addr{}
	counts := map[uint8]int{}
	for _, a := range out {
		if a.Addr != next[a.Core] {
			t.Fatalf("core %d out of order: got addr %#x want %#x", a.Core, uint64(a.Addr), uint64(next[a.Core]))
		}
		next[a.Core] += BlockSize
		counts[a.Core]++
	}
	if counts[0] != 50 || counts[1] != 30 || counts[2] != 70 {
		t.Errorf("per-core counts = %v", counts)
	}
}

func TestInterleaverDeterministic(t *testing.T) {
	mk := func() []Reader {
		var rs []Reader
		for c := uint8(0); c < 4; c++ {
			accs := make([]Access, 100)
			for i := range accs {
				accs[i] = Access{Core: c, Addr: Addr(i * 64)}
			}
			rs = append(rs, NewSliceReader(accs))
		}
		return rs
	}
	a, err := Collect(NewInterleaver(mk(), 8, rng.New(99)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Collect(NewInterleaver(mk(), 8, rng.New(99)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("interleavings diverged at %d", i)
		}
	}
}

func TestInterleaverActuallyMixes(t *testing.T) {
	mk := func() []Reader {
		var rs []Reader
		for c := uint8(0); c < 2; c++ {
			accs := make([]Access, 200)
			for i := range accs {
				accs[i] = Access{Core: c}
			}
			rs = append(rs, NewSliceReader(accs))
		}
		return rs
	}
	out, err := Collect(NewInterleaver(mk(), 2, rng.New(5)))
	if err != nil {
		t.Fatal(err)
	}
	switches := 0
	for i := 1; i < len(out); i++ {
		if out[i].Core != out[i-1].Core {
			switches++
		}
	}
	if switches < 10 {
		t.Errorf("only %d core switches in 400 accesses; interleaver is not mixing", switches)
	}
}

func TestInterleaverEmptyStreams(t *testing.T) {
	il := NewInterleaver([]Reader{
		NewSliceReader(nil),
		NewSliceReader([]Access{{Core: 1, Addr: 64}}),
	}, 1, rng.New(1))
	out, err := Collect(il)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("got %d accesses, want 1", len(out))
	}
}
