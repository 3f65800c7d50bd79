package cache

import (
	"slices"
	"testing"
)

// codecStream builds a prepared-looking stream for the codec fuzzer:
// dense BlockIDs, next-use annotations, PCs that move both ways and
// cores up to the format's 7-bit ceiling.
func codecStream(n int) []AccessInfo {
	stream := batchStream(n, 64, 7)
	for i := range stream {
		stream[i].PC = 0x400000 + uint64(i*37%101)*8
		stream[i].Core = uint8(i*13) % (maxStreamCore + 1)
	}
	AnnotateNextUse(stream)
	return stream
}

// FuzzDecodeAccessInfos fuzzes the snapshot record decoder, the first
// decoder of bytes that cross a trust boundary (cluster peers ship
// snapshots; CRC-32C catches corruption, not forgery). Whatever the
// input, the decoder must not panic or over-read, and anything it
// accepts must be a valid prepared stream — Index == position, NextUse
// NoNextUse or strictly inside (i, len) — that re-encodes and decodes
// back to the same records.
func FuzzDecodeAccessInfos(f *testing.F) {
	stream := codecStream(300)
	enc, err := AppendAccessInfos(nil, stream)
	if err != nil {
		f.Fatal(err)
	}
	n := uint16(len(stream))
	f.Add(enc, n)
	f.Add(enc[:len(enc)-1], n)
	f.Add(enc[:len(enc)/2], n)
	f.Add(enc[:1], n)
	f.Add(enc[:0], n)
	f.Add(enc, n/2) // a prefix: next-use links past its end must be refused
	f.Fuzz(func(t *testing.T, data []byte, n uint16) {
		dst := make([]AccessInfo, min(int(n), 4096))
		used, err := DecodeAccessInfos(data, dst)
		if used < 0 || used > len(data) {
			t.Fatalf("consumed %d of %d bytes", used, len(data))
		}
		if err != nil {
			return
		}
		for i, a := range dst {
			if a.Index != int64(i) {
				t.Fatalf("record %d: Index %d", i, a.Index)
			}
			if a.NextUse != NoNextUse && (a.NextUse <= int64(i) || a.NextUse >= int64(len(dst))) {
				t.Fatalf("record %d: NextUse %d outside (%d, %d)", i, a.NextUse, i, len(dst))
			}
		}
		re, err := AppendAccessInfos(nil, dst)
		if err != nil {
			t.Fatalf("re-encoding accepted records: %v", err)
		}
		back := make([]AccessInfo, len(dst))
		m, err := DecodeAccessInfos(re, back)
		if err != nil || m != len(re) {
			t.Fatalf("decoding the re-encoding: consumed %d of %d bytes, %v", m, len(re), err)
		}
		if !slices.Equal(back, dst) {
			t.Fatal("re-encoded records decode differently")
		}
	})
}
