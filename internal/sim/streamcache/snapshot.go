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
// Loads are a single bulk os.ReadFile followed by one decode pass into a
// preallocated []cache.AccessInfo sized from the header. Every validity
// check — magic/version, key, checksum, record decode, header bounds —
// fails soft: loadSnapshot reports !ok and the caller rebuilds the
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

// loadSnapshot bulk-reads path and reconstructs the stream for m. ok is
// false — never an error surfaced to the experiment — when the file is
// absent, from another format version, keyed differently, corrupt or
// truncated.
func loadSnapshot(path, key string, m workloads.Model) (s *sim.Stream, bytesRead int, ok bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, false
	}
	s, err = decodeSnapshot(data, key, m)
	if err != nil {
		return nil, len(data), false
	}
	return s, len(data), true
}

// decodeSnapshot validates and decodes one snapshot image.
func decodeSnapshot(data []byte, key string, m workloads.Model) (*sim.Stream, error) {
	const minLen = 8 + 32 + 5 + 4 // magic + key + 1-byte header fields + crc
	if len(data) < minLen {
		return nil, errSnapshot
	}
	if [8]byte(data[:8]) != snapshotMagic {
		return nil, errSnapshot
	}
	keyBytes, err := decodeKey(key)
	if err != nil || string(data[8:40]) != string(keyBytes) {
		return nil, errSnapshot
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(tail) {
		return nil, errSnapshot
	}
	pos := 40
	header := make([]uint64, 5)
	for i := range header {
		v, n := binary.Uvarint(body[pos:])
		if n <= 0 {
			return nil, errSnapshot
		}
		header[i] = v
		pos += n
	}
	count, numBlocks := header[0], header[1]
	// A stream holds at most cache.MaxStreamLen records and at most one
	// BlockID per record, and it fits in memory: reject absurd counts
	// before allocating.
	if count > cache.MaxStreamLen || count > uint64(len(body)) || numBlocks > count {
		return nil, errSnapshot
	}
	accesses := make([]cache.AccessInfo, count)
	n, err := cache.DecodeAccessInfos(body[pos:], accesses)
	if err != nil || pos+n != len(body) {
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
