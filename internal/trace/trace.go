// Package trace defines the memory-access trace model that all simulations
// consume, together with a compact binary codec for storing traces on disk.
//
// A trace is an ordered sequence of Access records. Each record carries the
// issuing core, the program counter of the instruction, the virtual byte
// address touched, and whether the access is a write. The order of records
// in a trace is the global interleaving observed by the memory system.
//
// Traces come from two places: the synthetic workload generators in
// internal/workloads, and files previously written with Writer (see codec.go).
package trace

import "fmt"

// BlockShift is log2 of the cache block size. Every cache in the simulated
// hierarchy uses 64-byte blocks, matching the paper's configuration.
const BlockShift = 6

// BlockSize is the cache block size in bytes.
const BlockSize = 1 << BlockShift

// Addr is a virtual byte address.
type Addr uint64

// BlockID returns the block number (address divided by the block size).
func (a Addr) BlockID() uint64 { return uint64(a) >> BlockShift }

// Access is one memory reference in a trace.
type Access struct {
	Core  uint8  // issuing core, 0-based
	Write bool   // true for stores, false for loads
	PC    uint64 // program counter of the triggering instruction
	Addr  Addr   // virtual byte address
}

// String renders the access in a compact human-readable form.
func (a Access) String() string {
	op := "R"
	if a.Write {
		op = "W"
	}
	return fmt.Sprintf("c%d %s pc=%#x addr=%#x", a.Core, op, a.PC, uint64(a.Addr))
}

// Reader yields a stream of accesses. Next returns the next access and
// true, or a zero Access and false when the stream is exhausted. Err
// reports any error encountered (io failures, corrupt encoding); a stream
// that ends cleanly has a nil Err.
type Reader interface {
	Next() (Access, bool)
	Err() error
}

// batchReader is a Reader that can also hand out accesses in bulk, which
// spares the hot consumers (cache.FilterStream, the coherence
// characterization) one dynamic call per reference. ReadBatch fills dst
// from the front of the stream and returns how many accesses it wrote; a
// count below len(dst) means the stream has ended (check Err). Next and
// ReadBatch draw from the same position and may be mixed freely.
type batchReader interface {
	Reader
	ReadBatch(dst []Access) int
}

// ChunkSize is the batch length those consumers read with.
const ChunkSize = 4096

// ReadBatch reads from r under the batchReader contract, falling back to
// repeated Next calls for readers that do not implement it.
func ReadBatch(r Reader, dst []Access) int {
	if br, ok := r.(batchReader); ok {
		return br.ReadBatch(dst)
	}
	for i := range dst {
		a, ok := r.Next()
		if !ok {
			return i
		}
		dst[i] = a
	}
	return len(dst)
}

// SliceReader adapts an in-memory []Access to the Reader interface.
type SliceReader struct {
	accesses []Access
	pos      int
}

// NewSliceReader returns a Reader over accesses. The slice is not copied;
// callers must not mutate it while reading.
func NewSliceReader(accesses []Access) *SliceReader {
	return &SliceReader{accesses: accesses}
}

// Next implements Reader.
func (r *SliceReader) Next() (Access, bool) {
	if r.pos >= len(r.accesses) {
		return Access{}, false
	}
	a := r.accesses[r.pos]
	r.pos++
	return a, true
}

// ReadBatch implements batchReader.
func (r *SliceReader) ReadBatch(dst []Access) int {
	n := copy(dst, r.accesses[r.pos:])
	r.pos += n
	return n
}

// Err implements Reader. A slice never fails.
func (r *SliceReader) Err() error { return nil }

// Collect drains r into a slice. It is mainly a convenience for tests and
// for experiment passes that need random access to the stream.
func Collect(r Reader) ([]Access, error) {
	var out []Access
	for {
		a, ok := r.Next()
		if !ok {
			break
		}
		out = append(out, a)
	}
	return out, r.Err()
}
