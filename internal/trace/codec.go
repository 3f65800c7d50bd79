package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// The on-disk trace format:
//
//	magic   [8]byte  "SHLLCTR1"
//	records repeated until EOF, each:
//	  flags   1 byte   bit0 = write, bits1..7 = core
//	  pcDelta varint   zig-zag delta from previous record's PC
//	  adDelta varint   zig-zag delta from previous record's Addr
//
// Delta + zig-zag + varint keeps typical synthetic traces at 3-6 bytes per
// record instead of 17. The format is strictly sequential; there is no
// index, because simulations always consume traces front to back.

// magic identifies trace files; the trailing digit is the format version.
const magic = "SHLLCTR1"

// errBadMagic is returned by NewFileReader when the input does not start
// with the trace file magic.
var errBadMagic = errors.New("trace: bad magic (not a trace file or wrong version)")

// maxCore is the largest core id the 7-bit flags field can carry.
const maxCore = 127

// Writer encodes accesses to an io.Writer in the binary trace format.
type Writer struct {
	w      *bufio.Writer
	prevPC uint64
	prevAd uint64
	count  uint64
	err    error
}

// NewWriter returns a Writer that emits the file header immediately.
func NewWriter(w io.Writer) *Writer {
	bw := bufio.NewWriterSize(w, 1<<16)
	tw := &Writer{w: bw}
	if _, err := bw.WriteString(magic); err != nil {
		tw.err = err
	}
	return tw
}

// Write appends one access to the stream.
func (w *Writer) Write(a Access) error {
	if w.err != nil {
		return w.err
	}
	if a.Core > maxCore {
		w.err = fmt.Errorf("trace: core %d exceeds maximum %d", a.Core, maxCore)
		return w.err
	}
	flags := byte(a.Core) << 1
	if a.Write {
		flags |= 1
	}
	var buf [1 + 2*binary.MaxVarintLen64]byte
	buf[0] = flags
	n := 1
	n += binary.PutUvarint(buf[n:], zigzag(int64(a.PC)-int64(w.prevPC)))
	n += binary.PutUvarint(buf[n:], zigzag(int64(a.Addr)-int64(w.prevAd)))
	if _, err := w.w.Write(buf[:n]); err != nil {
		w.err = err
		return err
	}
	w.prevPC = a.PC
	w.prevAd = uint64(a.Addr)
	w.count++
	return nil
}

// Count reports how many accesses have been written so far.
func (w *Writer) Count() uint64 { return w.count }

// Flush writes any buffered data to the underlying io.Writer.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	w.err = w.w.Flush()
	return w.err
}

// FileReader decodes a binary trace stream produced by Writer.
type FileReader struct {
	r      *bufio.Reader
	prevPC uint64
	prevAd uint64
	err    error
	done   bool
}

// NewFileReader validates the header and returns a Reader over r.
func NewFileReader(r io.Reader) (*FileReader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	hdr := make([]byte, len(magic))
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(hdr) != magic {
		return nil, errBadMagic
	}
	return &FileReader{r: br}, nil
}

// Next implements Reader.
func (fr *FileReader) Next() (Access, bool) {
	if fr.done {
		return Access{}, false
	}
	flags, err := fr.r.ReadByte()
	if err != nil {
		fr.done = true
		if err != io.EOF {
			fr.err = err
		}
		return Access{}, false
	}
	pcd, err := binary.ReadUvarint(fr.r)
	if err != nil {
		fr.fail(err)
		return Access{}, false
	}
	add, err := binary.ReadUvarint(fr.r)
	if err != nil {
		fr.fail(err)
		return Access{}, false
	}
	fr.prevPC = uint64(int64(fr.prevPC) + unzigzag(pcd))
	fr.prevAd = uint64(int64(fr.prevAd) + unzigzag(add))
	return Access{
		Core:  flags >> 1,
		Write: flags&1 != 0,
		PC:    fr.prevPC,
		Addr:  Addr(fr.prevAd),
	}, true
}

// fail records a mid-record decoding error; truncation inside a record is
// always an error, unlike a clean EOF at a record boundary.
func (fr *FileReader) fail(err error) {
	fr.done = true
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	fr.err = fmt.Errorf("trace: corrupt record: %w", err)
}

// Err implements Reader.
func (fr *FileReader) Err() error { return fr.err }

// Zigzag maps a signed delta onto an unsigned varint-friendly value
// (small magnitudes of either sign encode short). Exported so the other
// delta codecs of the repository — the stream-snapshot encoding in
// internal/cache reuses exactly this transform — stay bit-compatible
// with the trace format's convention.
func Zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// Unzigzag inverts Zigzag.
func Unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

func zigzag(v int64) uint64   { return Zigzag(v) }
func unzigzag(u uint64) int64 { return Unzigzag(u) }
