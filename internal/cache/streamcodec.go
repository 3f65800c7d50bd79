package cache

import (
	"encoding/binary"
	"fmt"

	"sharellc/internal/trace"
)

// Flat binary encoding of prepared LLC reference streams — the record
// layer of the stream-snapshot format (internal/sim/streamcache owns the
// file framing: magic, key, header, checksum). It extends the trace
// format's delta + zig-zag + varint scheme (internal/trace/codec.go) to
// full AccessInfo records:
//
//	flags      1 byte   bit0 = write, bits1..7 = core
//	blockDelta uvarint  zig-zag delta from the previous record's Block
//	pcDelta    uvarint  zig-zag delta from the previous record's PC
//	blockID    uvarint  dense per-stream block ID
//	nextUse    uvarint  0 = NoNextUse, else NextUse - Index (always > 0)
//
// Index is not stored: prepared streams always have Index == position
// (FilterStream assigns it at append time), so the decoder regenerates
// it. Typical records encode in 6-10 bytes instead of the 32-byte
// in-memory struct.

// maxStreamCore is the largest core id the 7-bit flags field can carry;
// it matches the 128-core ceiling of cache.Config and workloads.Model.
const maxStreamCore = 127

// AppendAccessInfos appends the encoded records of stream to dst and
// returns the extended slice. It fails on records the format cannot
// represent (core > 127 or a non-positive forward NextUse distance) —
// prepared streams never contain these, so an error means the caller is
// snapshotting the wrong thing.
func AppendAccessInfos(dst []byte, stream []AccessInfo) ([]byte, error) {
	var e RecordEncoder
	return e.Append(dst, stream)
}

// RecordEncoder is AppendAccessInfos in pieces: it carries the delta
// base from one call to the next, so a stream appended chunk by chunk
// encodes to the bytes AppendAccessInfos gives for the whole. The zero
// value starts a stream.
type RecordEncoder struct {
	prevBlock, prevPC uint64
	n                 int // records encoded so far
}

// Append appends the encoded records of recs, the stream's next
// records, to dst and returns the extended slice (AppendAccessInfos).
func (e *RecordEncoder) Append(dst []byte, recs []AccessInfo) ([]byte, error) {
	prevBlock, prevPC := e.prevBlock, e.prevPC
	var buf [1 + 4*binary.MaxVarintLen64]byte
	for i := range recs {
		a := &recs[i]
		if a.Core > maxStreamCore {
			return nil, fmt.Errorf("cache: stream record %d: core %d exceeds maximum %d", e.n+i, a.Core, maxStreamCore)
		}
		nextUse := uint64(0)
		if a.NextUse != NoNextUse {
			if a.NextUse <= a.Index {
				return nil, fmt.Errorf("cache: stream record %d: NextUse %d not after Index %d", e.n+i, a.NextUse, a.Index)
			}
			nextUse = uint64(a.NextUse - a.Index)
		}
		flags := byte(a.Core) << 1
		if a.Write {
			flags |= 1
		}
		buf[0] = flags
		n := 1
		n += binary.PutUvarint(buf[n:], trace.Zigzag(int64(a.Block)-int64(prevBlock)))
		n += binary.PutUvarint(buf[n:], trace.Zigzag(int64(a.PC)-int64(prevPC)))
		n += binary.PutUvarint(buf[n:], uint64(a.BlockID))
		n += binary.PutUvarint(buf[n:], nextUse)
		dst = append(dst, buf[:n]...)
		prevBlock, prevPC = a.Block, a.PC
	}
	e.prevBlock, e.prevPC, e.n = prevBlock, prevPC, e.n+len(recs)
	return dst, nil
}

// uvarintSlow is the out-of-line continuation of uvarintAt for varints
// longer than three bytes (and for truncation/overflow errors, reported
// as next < 0).
func uvarintSlow(data []byte, p int) (uint64, int) {
	// p < 0 propagates a failure from an earlier field in the caller's
	// record; one slow-path check covers the whole chain.
	if p < 0 || p >= len(data) {
		return 0, -1
	}
	v, n := binary.Uvarint(data[p:])
	if n <= 0 {
		return 0, -1
	}
	return v, p + n
}

// uvarintAt decodes one uvarint at offset p, returning the value and the
// offset just past it (negative on malformed input). The one- to
// three-byte cases — the stream encoding's deltas and ids, which in a
// full-size stream mostly take three bytes — are decoded here without a
// loop; everything else takes the out-of-line binary.Uvarint path.
func uvarintAt(data []byte, p int) (uint64, int) {
	if p >= 0 && p+2 < len(data) {
		b0, b1, b2 := data[p], data[p+1], data[p+2]
		if b0 < 0x80 {
			return uint64(b0), p + 1
		}
		if b1 < 0x80 {
			return uint64(b0&0x7f) | uint64(b1)<<7, p + 2
		}
		if b2 < 0x80 {
			return uint64(b0&0x7f) | uint64(b1&0x7f)<<7 | uint64(b2)<<14, p + 3
		}
	}
	return uvarintSlow(data, p)
}

// maxRecordLen is the longest encoded record: the flags byte and four
// uvarints of at most binary.MaxVarintLen64 bytes.
const maxRecordLen = 1 + 4*binary.MaxVarintLen64

// DecodeAccessInfos decodes exactly len(dst) records from data into dst
// and returns the number of bytes consumed. Index is regenerated as the
// record position; every other field round-trips bit-identically through
// AppendAccessInfos. The decoder never panics on malformed input — it
// returns an error on truncation, varint overflow or out-of-range values
// (callers checksum the data, so an error here means the checksum was
// forged or the caller sized dst wrong). dst holds at most MaxStreamLen
// records. It is RecordDecoder in one call.
func DecodeAccessInfos(data []byte, dst []AccessInfo) (int, error) {
	var d RecordDecoder
	return d.Decode(data, dst, true)
}

// RecordDecoder is DecodeAccessInfos in pieces, the mirror of
// RecordEncoder: it carries the delta base and the record count from one
// call to the next, so a stream decoded from consecutive chunks of its
// encoding gives the records DecodeAccessInfos gives for the whole. The
// zero value starts a stream.
type RecordDecoder struct {
	prevBlock, prevPC uint64
	n                 int // records decoded so far
}

// Decode decodes the stream's next records from data into dst, which
// holds the whole stream (dst[:n] came from earlier calls), and returns
// the bytes it consumed. When final, data holds the rest of the
// encoding: Decode fills dst and fails on truncation. Otherwise it stops
// at dst's end or at the first record that may run past data's end — one
// starting fewer than maxRecordLen bytes before it — and the caller
// passes the unconsumed bytes again, with more behind them, on the next
// call; a record that starts earlier is whole in data, so any failure is
// malformed input. The loop is the warm-start hot path — a full-size
// suite decodes tens of millions of records on every cache load — hence
// the varint fast path (uvarintAt) instead of the tidier closure over
// binary.Uvarint.
func (d *RecordDecoder) Decode(data []byte, dst []AccessInfo, final bool) (int, error) {
	if len(dst) > MaxStreamLen {
		return 0, errStreamTooLong(uint64(len(dst)))
	}
	// A record may start before limit: anywhere in a final chunk, or
	// where a whole record still fits.
	limit := len(data)
	if !final {
		limit -= maxRecordLen - 1
	}
	prevBlock, prevPC := d.prevBlock, d.prevPC
	pos, i := 0, d.n
	for ; i < len(dst); i++ {
		if pos >= limit {
			if final {
				return pos, fmt.Errorf("cache: stream record %d: truncated", i)
			}
			break
		}
		flags := data[pos]
		blockDelta, p1 := uvarintAt(data, pos+1)
		pcDelta, p2 := uvarintAt(data, p1)
		blockID, p3 := uvarintAt(data, p2)
		nextUse, p4 := uvarintAt(data, p3)
		// A negative offset poisons every later one, so one check covers
		// all four fields.
		if p4 < 0 {
			return pos, fmt.Errorf("cache: stream record %d: truncated or malformed varint", i)
		}
		pos = p4
		if blockID > 1<<32-1 {
			return pos, fmt.Errorf("cache: stream record %d: block id %d overflows uint32", i, blockID)
		}
		prevBlock = uint64(int64(prevBlock) + trace.Unzigzag(blockDelta))
		prevPC = uint64(int64(prevPC) + trace.Unzigzag(pcDelta))
		next := NoNextUse
		if nextUse != 0 {
			// Range-checked at 64 bits, before narrowing, so no offset
			// can wrap back into the stream.
			n := int64(i) + int64(nextUse)
			if n <= int64(i) || n >= int64(len(dst)) {
				return pos, fmt.Errorf("cache: stream record %d: next-use %d outside stream", i, n)
			}
			next = int32(n)
		}
		dst[i] = AccessInfo{
			Block:   prevBlock,
			PC:      prevPC,
			Index:   int32(i),
			NextUse: next,
			BlockID: uint32(blockID),
			Core:    flags >> 1,
			Write:   flags&1 != 0,
		}
	}
	d.prevBlock, d.prevPC, d.n = prevBlock, prevPC, i
	return pos, nil
}
