package streamcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"sharellc/internal/cache"
	"sharellc/internal/sim"
	"sharellc/internal/workloads"
)

// The snapshot file format (one file per cache key):
//
//	magic    [8]byte  "SHLLCSS" + codecVersion digit
//	key      [32]byte raw SHA-256 cache key (must match the lookup key)
//	header   uvarints: count, numBlocks, traceLen, l1Hits, l2Hits
//	records  count × cache.AppendAccessInfos encoding
//	crc      [4]byte  CRC-32C (Castagnoli) of everything before it, LE
//
// A load streams the file through one fixed buffer (snapshotReader): it
// checks magic and key, reads the header, allocates the stream sized from
// it, decodes the records chunk by chunk (cache.RecordDecoder) with a
// running checksum, and checks the trailer last; the stream is the only
// allocation that grows with the file. Every validity check —
// magic/version, key, header bounds, record decode, checksum — fails
// soft: loadSnapshot reports !ok and the caller rebuilds the
// stream and rewrites the file. A snapshot can therefore be deleted,
// truncated or bit-flipped at any time without affecting results, only
// warm-start time.

// snapshotMagic identifies stream snapshot files; the trailing digit is
// codecVersion, so a format bump orphans older files at the magic check
// (their keys change too, via Key's version line).
var snapshotMagic = [8]byte{'S', 'H', 'L', 'L', 'C', 'S', 'S', '0' + codecVersion}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// errSnapshot is the internal "fall back to rebuild" sentinel; load
// failures are deliberately not propagated further.
var errSnapshot = errors.New("streamcache: invalid snapshot")

// encodeSnapshot renders the full snapshot image (magic through CRC
// trailer) for s under key, the exact bytes a snapshot file holds — and
// therefore also the peer-transfer wire format.
func encodeSnapshot(key string, s *sim.Stream) ([]byte, error) {
	var b bytes.Buffer
	// Records dominate; 8 bytes each is a comfortable overestimate.
	b.Grow(8 * len(s.Accesses))
	if _, err := encodeSnapshotTo(&b, key, s); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// The encoder's buffer: records are encoded snapshotChunk at a time, at
// most 41 bytes each, and the buffer is flushed once it holds
// snapshotFlush bytes, so it never outgrows snapshotBuf.
const (
	snapshotChunk = 512
	snapshotFlush = 32 << 10
	snapshotBuf   = 64 << 10
)

// encodeSnapshotTo writes the snapshot image for s under key to w
// through one fixed buffer, with a running CRC-32C, and returns the
// bytes written: the file write never holds the whole image.
func encodeSnapshotTo(w io.Writer, key string, s *sim.Stream) (int, error) {
	keyBytes, err := decodeKey(key)
	if err != nil {
		return 0, err
	}
	buf := make([]byte, 0, snapshotBuf)
	var crc uint32
	written := 0
	flush := func() error {
		crc = crc32.Update(crc, crcTable, buf)
		n, err := w.Write(buf)
		written += n
		buf = buf[:0]
		return err
	}
	buf = append(buf, snapshotMagic[:]...)
	buf = append(buf, keyBytes...)
	for _, v := range []uint64{uint64(len(s.Accesses)), uint64(s.NumBlocks), s.TraceLen, s.L1Hits, s.L2Hits} {
		buf = binary.AppendUvarint(buf, v)
	}
	var enc cache.RecordEncoder
	for recs := s.Accesses; len(recs) > 0; {
		chunk := recs[:min(snapshotChunk, len(recs))]
		recs = recs[len(chunk):]
		if buf, err = enc.Append(buf, chunk); err != nil {
			return written, err
		}
		if len(buf) >= snapshotFlush {
			if err := flush(); err != nil {
				return written, err
			}
		}
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Update(crc, crcTable, buf))
	n, err := w.Write(buf)
	return written + n, err
}

// writeSnapshot streams s's snapshot image into a temp file in path's
// directory and atomically renames it to path, returning the file size.
// Failures leave no partial file behind.
func writeSnapshot(path, key string, s *sim.Stream) (int, error) {
	n := 0
	err := installSnapshot(path, func(w io.Writer) error {
		var err error
		n, err = encodeSnapshotTo(w, key, s)
		return err
	})
	return n, err
}

// writeSnapshotBytes atomically installs an already-encoded snapshot
// image at path.
func writeSnapshotBytes(path string, buf []byte) error {
	return installSnapshot(path, func(w io.Writer) error {
		_, err := w.Write(buf)
		return err
	})
}

// installSnapshot writes a snapshot file through write: into a temp file
// in path's directory, then renamed to path.
func installSnapshot(path string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".sllc-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op once renamed
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// validateSnapshot checks the cheap integrity envelope of a snapshot
// image — length, magic/version, embedded key, CRC trailer — without
// decoding the records. Serving paths use it so a corrupt file is never
// propagated to a peer; the receiver still runs the full decode.
func validateSnapshot(data []byte, key string) error {
	const minLen = 8 + 32 + 5 + 4
	if len(data) < minLen {
		return errSnapshot
	}
	if [8]byte(data[:8]) != snapshotMagic {
		return errSnapshot
	}
	keyBytes, err := decodeKey(key)
	if err != nil || string(data[8:40]) != string(keyBytes) {
		return errSnapshot
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(tail) {
		return errSnapshot
	}
	return nil
}

// loadSnapshot reads path and reconstructs the stream for m through one
// fixed snapshotBuf-byte buffer. ok is false — never an error surfaced to
// the experiment — when the file is absent, from another format version,
// keyed differently, corrupt or truncated.
func loadSnapshot(path, key string, m workloads.Model) (s *sim.Stream, bytesRead int, ok bool) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, false
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, false
	}
	s, err = readSnapshot(f, fi.Size(), snapshotBuf, key, m)
	return s, int(fi.Size()), err == nil
}

// readSnapshot decodes the size-byte snapshot image src delivers through
// a bufSize-byte buffer, which must hold more than one record (tests
// shrink it to cross a chunk boundary at every record).
func readSnapshot(src io.Reader, size int64, bufSize int, key string, m workloads.Model) (*sim.Stream, error) {
	r := snapshotReader{src: src, buf: make([]byte, bufSize), left: size, body: size - 4}
	return r.decode(key, m)
}

// decodeSnapshot validates and decodes one snapshot image held whole in
// memory (a peer transfer): the reader's one-chunk case.
func decodeSnapshot(data []byte, key string, m workloads.Model) (*sim.Stream, error) {
	r := snapshotReader{buf: data, w: len(data), body: int64(len(data)) - 4}
	return r.decode(key, m)
}

// snapshotReader decodes one snapshot image as it reads it: buf holds a
// window of the image, refilled from src as the decode consumes it, with
// a running CRC-32C of the consumed bytes checked against the trailer at
// the end, as encodeSnapshotTo computes it while writing. An image held
// whole in memory is its own buffer and src is nil.
type snapshotReader struct {
	src  io.Reader
	buf  []byte
	r, w int    // buf[r:w] holds the read bytes not yet consumed
	left int64  // image bytes src has not yet delivered
	body int64  // bytes before the trailer not yet consumed
	crc  uint32 // CRC-32C of the consumed bytes
}

// fill reads until buf[r:w] holds n bytes, n <= len(buf), or the rest of
// the image, moving the unconsumed bytes to the front of buf first. It
// reports false on a read error, a file shorter than its size included.
func (sr *snapshotReader) fill(n int) bool {
	if sr.w-sr.r >= n || sr.left == 0 {
		return true
	}
	sr.w = copy(sr.buf, sr.buf[sr.r:sr.w])
	sr.r = 0
	m, err := io.ReadFull(sr.src, sr.buf[sr.w:sr.w+int(min(int64(len(sr.buf)-sr.w), sr.left))])
	sr.w += m
	sr.left -= int64(m)
	return err == nil
}

// buffered returns the bytes of buf[r:w] before the trailer.
func (sr *snapshotReader) buffered() []byte {
	return sr.buf[sr.r : sr.r+int(min(int64(sr.w-sr.r), sr.body))]
}

// consume checksums and drops the next n bytes of buffered().
func (sr *snapshotReader) consume(n int) {
	sr.crc = crc32.Update(sr.crc, crcTable, sr.buf[sr.r:sr.r+n])
	sr.r += n
	sr.body -= int64(n)
}

// decode validates and decodes the image: magic, key, header, records
// and trailer, in that order. Every failure is errSnapshot.
func (sr *snapshotReader) decode(key string, m workloads.Model) (*sim.Stream, error) {
	const minBody = 8 + 32 + 5 // magic + key + 1-byte header fields
	if sr.body < minBody || !sr.fill(40) {
		return nil, errSnapshot
	}
	head := sr.buf[sr.r : sr.r+40]
	if [8]byte(head[:8]) != snapshotMagic {
		return nil, errSnapshot
	}
	keyBytes, err := decodeKey(key)
	if err != nil || string(head[8:]) != string(keyBytes) {
		return nil, errSnapshot
	}
	sr.consume(40)
	var header [5]uint64
	for i := range header {
		if !sr.fill(binary.MaxVarintLen64) {
			return nil, errSnapshot
		}
		v, n := binary.Uvarint(sr.buffered())
		if n <= 0 {
			return nil, errSnapshot
		}
		header[i] = v
		sr.consume(n)
	}
	count, numBlocks := header[0], header[1]
	// A stream holds at most cache.MaxStreamLen records and at most one
	// BlockID per record, and every record takes at least one byte:
	// reject absurd counts before allocating.
	if count > cache.MaxStreamLen || count > uint64(sr.body) || numBlocks > count {
		return nil, errSnapshot
	}
	accesses := make([]cache.AccessInfo, count)
	var dec cache.RecordDecoder
	for {
		if !sr.fill(len(sr.buf)) {
			return nil, errSnapshot
		}
		chunk := sr.buffered()
		final := int64(len(chunk)) == sr.body
		n, err := dec.Decode(chunk, accesses, final)
		if err != nil {
			return nil, errSnapshot
		}
		sr.consume(n)
		if final {
			break
		}
		// A full buffer holds a whole record, so a chunk that gives up
		// nothing has decoded every record with bytes still to come.
		if n == 0 {
			return nil, errSnapshot
		}
	}
	// What is left is the trailer alone.
	if sr.body != 0 || !sr.fill(4) || sr.crc != binary.LittleEndian.Uint32(sr.buf[sr.r:sr.w]) {
		return nil, errSnapshot
	}
	return &sim.Stream{
		Model:     m,
		Accesses:  accesses,
		NumBlocks: int(numBlocks),
		TraceLen:  header[2],
		L1Hits:    header[3],
		L2Hits:    header[4],
	}, nil
}

// decodeKey turns the hex cache key back into its raw 32 bytes.
func decodeKey(key string) ([]byte, error) {
	out, err := hex.DecodeString(key)
	if err != nil || len(out) != sha256.Size {
		return nil, errSnapshot
	}
	return out, nil
}
