package cache

import (
	"encoding/binary"
	"slices"
	"testing"
	"unsafe"
)

// TestAccessInfoSize pins the stream record at 32 bytes: a field added
// or reordered fails here before it grows every resident stream.
func TestAccessInfoSize(t *testing.T) {
	if got := unsafe.Sizeof(AccessInfo{}); got != 32 {
		t.Fatalf("sizeof(AccessInfo) = %d bytes, want 32", got)
	}
}

// TestStreamBuilderStopsAtMaxStreamLen: the builder hands out positions
// up to MaxStreamLen-1 and then fails instead of wrapping Index. It
// starts two records short of the bound, so it allocates two records.
func TestStreamBuilderStopsAtMaxStreamLen(t *testing.T) {
	b := streamBuilder{n: MaxStreamLen - 2}
	for i := 0; i < 2; i++ {
		if err := b.add(AccessInfo{Block: uint64(i)}); err != nil {
			t.Fatalf("add %d: %v", i, err)
		}
	}
	if got := b.seg[1].Index; got != MaxStreamLen-1 {
		t.Fatalf("last Index = %d, want %d", got, MaxStreamLen-1)
	}
	if err := b.add(AccessInfo{}); err == nil {
		t.Fatalf("add past MaxStreamLen succeeded (Index %d)", b.seg[len(b.seg)-1].Index)
	}
	if b.n != MaxStreamLen || len(b.seg) != 2 {
		t.Fatalf("after the refused add: n = %d, segment holds %d records", b.n, len(b.seg))
	}
}

// TestDecodeAccessInfosRejectsWrappingNextUse: a next-use offset of
// 2^32 + 2 from record 0 lands far outside a three-record stream, but
// narrowed to 32 bits first it would read as position 2, inside it. The
// decoder must range-check before it narrows.
func TestDecodeAccessInfosRejectsWrappingNextUse(t *testing.T) {
	data := binary.AppendUvarint([]byte{0, 0, 0, 0}, 1<<32+2)
	data = append(data, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	if _, err := DecodeAccessInfos(data, make([]AccessInfo, 3)); err == nil {
		t.Fatal("decoder accepted a next-use offset past 2^32")
	}
}

// TestCodecRoundTripLongStream round-trips Index and NextUse at the
// largest positions a unit test affords: a 2^20-record stream whose
// first block recurs only at its last position, the widest forward
// next-use offset the stream can hold.
func TestCodecRoundTripLongStream(t *testing.T) {
	const n = 1 << 20
	stream := make([]AccessInfo, n)
	for i := range stream {
		stream[i] = AccessInfo{Block: uint64(i), PC: 0x400 + uint64(i%97)*4, Core: uint8(i % 8), Write: i%3 == 0, Index: int32(i)}
	}
	stream[n-1].Block = 0
	AnnotateNextUse(stream)
	if got := stream[0].NextUse; got != n-1 {
		t.Fatalf("stream[0].NextUse = %d, want %d", got, n-1)
	}
	enc, err := AppendAccessInfos(nil, stream)
	if err != nil {
		t.Fatal(err)
	}
	back := make([]AccessInfo, n)
	used, err := DecodeAccessInfos(enc, back)
	if err != nil || used != len(enc) {
		t.Fatalf("decoded %d of %d bytes: %v", used, len(enc), err)
	}
	if !slices.Equal(back, stream) {
		t.Fatal("long stream does not round-trip")
	}
}

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
			if int(a.Index) != i {
				t.Fatalf("record %d: Index %d", i, a.Index)
			}
			if a.NextUse != NoNextUse && (int(a.NextUse) <= i || int(a.NextUse) >= len(dst)) {
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
