package streamcache

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"sharellc/internal/cache"
	"sharellc/internal/sim"
	"sharellc/internal/workloads"
)

// randomStream synthesizes an adversarially shaped prepared stream:
// random 64-bit blocks and PCs (large deltas in both directions), dense
// first-touch BlockIDs, and exact NextUse chains — the same invariants
// sim.BuildStream guarantees.
func randomStream(rnd *rand.Rand, n int) *sim.Stream {
	accesses := make([]cache.AccessInfo, n)
	blocks := n/4 + 1
	pool := make([]uint64, blocks)
	for i := range pool {
		pool[i] = rnd.Uint64()
	}
	for i := range accesses {
		b := rnd.Intn(blocks)
		accesses[i] = cache.AccessInfo{
			Block:   pool[b],
			Core:    uint8(rnd.Intn(128)),
			PC:      rnd.Uint64(),
			Write:   rnd.Intn(2) == 0,
			Index:   int32(i),
			NextUse: cache.NoNextUse,
		}
	}
	numBlocks := cache.AnnotateNextUse(accesses)
	return &sim.Stream{
		Model:     workloads.Model{Name: "random"},
		Accesses:  accesses,
		NumBlocks: numBlocks,
		TraceLen:  uint64(n) * 7,
		L1Hits:    rnd.Uint64() % 1000,
		L2Hits:    rnd.Uint64() % 1000,
	}
}

// TestSnapshotRoundTripProperty: random streams of assorted sizes
// round-trip bit-identically through the snapshot file.
func TestSnapshotRoundTripProperty(t *testing.T) {
	dir := t.TempDir()
	rnd := rand.New(rand.NewSource(42))
	for trial, n := range []int{0, 1, 2, 17, 1000, 20000} {
		s := randomStream(rnd, n)
		key := Key(s.Model, cache.DefaultConfig(), uint64(trial))
		path := filepath.Join(dir, key+".sllc")
		if _, err := writeSnapshot(path, key, s); err != nil {
			t.Fatalf("n=%d: write: %v", n, err)
		}
		got, _, ok := loadSnapshot(path, key, s.Model)
		if !ok {
			t.Fatalf("n=%d: load failed", n)
		}
		if got.NumBlocks != s.NumBlocks || got.TraceLen != s.TraceLen ||
			got.L1Hits != s.L1Hits || got.L2Hits != s.L2Hits {
			t.Fatalf("n=%d: header mismatch: %+v", n, got)
		}
		if len(got.Accesses) != len(s.Accesses) {
			t.Fatalf("n=%d: length %d vs %d", n, len(got.Accesses), len(s.Accesses))
		}
		for i := range s.Accesses {
			if got.Accesses[i] != s.Accesses[i] {
				t.Fatalf("n=%d: access %d: %+v vs %+v", n, i, got.Accesses[i], s.Accesses[i])
			}
		}
	}
}

// imageOf is the snapshot image of s under key rendered whole, as the
// format defines it: magic, key, header, every record in one
// cache.AppendAccessInfos call, and the CRC-32C of all of it.
func imageOf(t *testing.T, key string, s *sim.Stream) []byte {
	t.Helper()
	keyBytes, err := decodeKey(key)
	if err != nil {
		t.Fatal(err)
	}
	buf := append(snapshotMagic[:], keyBytes...)
	for _, v := range []uint64{uint64(len(s.Accesses)), uint64(s.NumBlocks), s.TraceLen, s.L1Hits, s.L2Hits} {
		buf = binary.AppendUvarint(buf, v)
	}
	if buf, err = cache.AppendAccessInfos(buf, s.Accesses); err != nil {
		t.Fatal(err)
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, crcTable))
}

// TestSnapshotFileMatchesImage holds the streamed snapshot write — a
// fixed buffer flushed as it fills, with a running checksum — and the
// peer path's encodeSnapshot to the image rendered whole, on the empty
// stream and random streams whose records end on both sides of the
// encoder's chunk and flush boundaries.
func TestSnapshotFileMatchesImage(t *testing.T) {
	dir := t.TempDir()
	rnd := rand.New(rand.NewSource(7))
	longest := 0
	for trial, n := range []int{0, 1, snapshotChunk - 1, snapshotChunk, snapshotChunk + 1, 3000, 4 * snapshotChunk, 120000} {
		s := randomStream(rnd, n)
		key := Key(s.Model, cache.DefaultConfig(), uint64(trial))
		want := imageOf(t, key, s)
		longest = max(longest, len(want))
		path := filepath.Join(dir, key+".sllc")
		size, err := writeSnapshot(path, key, s)
		if err != nil {
			t.Fatalf("n=%d: write: %v", n, err)
		}
		file, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if size != len(file) || !bytes.Equal(file, want) {
			t.Errorf("n=%d: the file (%d bytes, reported %d) differs from the %d-byte image", n, len(file), size, len(want))
		}
		image, err := encodeSnapshot(key, s)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(image, want) {
			t.Errorf("n=%d: encodeSnapshot's %d bytes differ from the %d-byte image", n, len(image), len(want))
		}
	}
	if longest < 2*snapshotFlush {
		t.Errorf("the longest image, %d bytes, does not span two flushes", longest)
	}
}

// writeTestSnapshot saves one small real stream and returns its path,
// key and model.
func writeTestSnapshot(t *testing.T, dir string) (path, key string, m workloads.Model) {
	t.Helper()
	m = testModel(t, "canneal", 0.01)
	machine := cache.DefaultConfig()
	s, err := sim.BuildStream(m, machine, 1)
	if err != nil {
		t.Fatal(err)
	}
	key = Key(m, machine, 1)
	path = filepath.Join(dir, key+".sllc")
	if _, err := writeSnapshot(path, key, s); err != nil {
		t.Fatal(err)
	}
	return path, key, m
}

// TestSnapshotTruncationRebuilds: every truncation point must fail soft,
// and the cache must silently rebuild and repair the file.
func TestSnapshotTruncationRebuilds(t *testing.T) {
	dir := t.TempDir()
	path, key, m := writeTestSnapshot(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 1, 7, 8, 39, 41, len(data) / 2, len(data) - 5, len(data) - 1} {
		if cut > len(data) {
			continue
		}
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, ok := loadSnapshot(path, key, m); ok {
			t.Fatalf("truncation at %d/%d bytes loaded successfully", cut, len(data))
		}
	}

	// The cache recovers: rebuild, rewrite, and the repaired file loads.
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	c := New(Options{Dir: dir})
	if _, err := c.Stream(context.Background(), m, cache.DefaultConfig(), 1); err != nil {
		t.Fatalf("truncated snapshot surfaced an error: %v", err)
	}
	st := c.Stats()
	if st.DiskMiss != 1 || st.Builds != 1 {
		t.Errorf("stats = %+v, want DiskMiss=1 Builds=1", st)
	}
	if repaired, err := os.ReadFile(path); err != nil || string(repaired) != string(data) {
		t.Errorf("snapshot not repaired after rebuild (err %v, %d vs %d bytes)", err, len(repaired), len(data))
	}
}

// TestSnapshotCorruptionRebuilds: flipping any single byte is caught
// (checksum or stricter structural checks) and rebuilt silently.
func TestSnapshotCorruptionRebuilds(t *testing.T) {
	dir := t.TempDir()
	path, key, m := writeTestSnapshot(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(7))
	offsets := []int{0, 8, 40, len(data) - 1, len(data) - 4}
	for i := 0; i < 40; i++ {
		offsets = append(offsets, rnd.Intn(len(data)))
	}
	for _, off := range offsets {
		flipped := append([]byte(nil), data...)
		flipped[off] ^= 0x20
		if err := os.WriteFile(path, flipped, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, ok := loadSnapshot(path, key, m); ok {
			t.Fatalf("byte flip at offset %d loaded successfully", off)
		}
		c := New(Options{Dir: dir})
		if _, err := c.Stream(context.Background(), m, cache.DefaultConfig(), 1); err != nil {
			t.Fatalf("flip at %d surfaced an error: %v", off, err)
		}
	}
}

// TestSnapshotVersionBumpIgnored: a file that differs only in its format
// version digit (checksum recomputed, so it is otherwise pristine) must
// be treated as absent.
func TestSnapshotVersionBumpIgnored(t *testing.T) {
	dir := t.TempDir()
	path, key, m := writeTestSnapshot(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	stale := append([]byte(nil), data...)
	stale[7] = '0' + codecVersion + 1 // pretend a newer (or older) codec wrote it
	body := stale[:len(stale)-4]
	binary.LittleEndian.PutUint32(stale[len(stale)-4:], crc32.Checksum(body, crcTable))
	if err := os.WriteFile(path, stale, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := loadSnapshot(path, key, m); ok {
		t.Fatal("version-bumped snapshot loaded successfully")
	}
	c := New(Options{Dir: dir})
	if _, err := c.Stream(context.Background(), m, cache.DefaultConfig(), 1); err != nil {
		t.Fatalf("stale snapshot surfaced an error: %v", err)
	}
	if st := c.Stats(); st.Builds != 1 || st.DiskMiss != 1 {
		t.Errorf("stats = %+v, want Builds=1 DiskMiss=1 (stale file ignored)", st)
	}
	// The rebuild repaired the file back to the current version.
	if repaired, err := os.ReadFile(path); err != nil || repaired[7] != '0'+codecVersion {
		t.Errorf("stale snapshot not rewritten at the current version")
	}
}

// TestSnapshotWrongKeyIgnored: a snapshot renamed onto another key's
// path (e.g. a collision-free copy) is rejected by the embedded key.
func TestSnapshotWrongKeyIgnored(t *testing.T) {
	dir := t.TempDir()
	path, _, m := writeTestSnapshot(t, dir)
	otherKey := Key(m, cache.DefaultConfig(), 2)
	otherPath := filepath.Join(dir, otherKey+".sllc")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(otherPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := loadSnapshot(otherPath, otherKey, m); ok {
		t.Fatal("snapshot with mismatched embedded key loaded successfully")
	}
}

// TestDecodeSnapshotRejectsCountPastMaxStreamLen: a checksummed image
// whose header claims more than cache.MaxStreamLen records is refused
// before any record is allocated.
func TestDecodeSnapshotRejectsCountPastMaxStreamLen(t *testing.T) {
	m := workloads.Model{Name: "random"}
	key := Key(m, cache.DefaultConfig(), 1)
	keyBytes, err := decodeKey(key)
	if err != nil {
		t.Fatal(err)
	}
	img := append(append([]byte(nil), snapshotMagic[:]...), keyBytes...)
	for _, v := range []uint64{cache.MaxStreamLen + 1, 0, 0, 0, 0} {
		img = binary.AppendUvarint(img, v)
	}
	img = append(img, make([]byte, 64)...)
	img = binary.LittleEndian.AppendUint32(img, crc32.Checksum(img, crcTable))
	if _, err := decodeSnapshot(img, key, m); err == nil {
		t.Fatal("decoded a snapshot claiming more than cache.MaxStreamLen records")
	}
}

// smallSnapshotBuf is a reader buffer one byte longer than the longest
// record encoding (a flags byte and four 10-byte varints), so every
// record of a test stream lies near a chunk boundary.
const smallSnapshotBuf = 1 + 4*binary.MaxVarintLen64 + 1

// sameStream reports whether two decoded streams are equal, header and
// records.
func sameStream(a, b *sim.Stream) bool {
	return a.NumBlocks == b.NumBlocks && a.TraceLen == b.TraceLen && a.L1Hits == b.L1Hits &&
		a.L2Hits == b.L2Hits && slices.Equal(a.Accesses, b.Accesses)
}

// TestSnapshotReaderChunkBoundaries holds the chunked reader to the
// one-shot record decoder. A 40-record stream's encoding is cut at every
// offset and framed as a checksummed image whose header claims the
// records wholly inside the cut, one more, or the whole stream; read
// through a buffer just above one record, every image must be accepted
// exactly when cache.DecodeAccessInfos accepts its record bytes, and
// decode to the same records. Every third record's next use is the
// record after it, so some prefixes hold a dangling link and some do
// not.
func TestSnapshotReaderChunkBoundaries(t *testing.T) {
	s := randomStream(rand.New(rand.NewSource(5)), 40)
	for i := range s.Accesses {
		s.Accesses[i].NextUse = cache.NoNextUse
		if i%3 == 0 && i+1 < len(s.Accesses) {
			s.Accesses[i].NextUse = int32(i + 1)
		}
	}
	key := Key(s.Model, cache.DefaultConfig(), 1)
	keyBytes, err := decodeKey(key)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := cache.AppendAccessInfos(nil, s.Accesses)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 10*smallSnapshotBuf {
		t.Fatalf("the records take %d bytes, under ten %d-byte chunks", len(recs), smallSnapshotBuf)
	}
	whole := 0 // records wholly inside the cut
	accepted := 0
	for cut := 0; cut <= len(recs); cut++ {
		for whole < len(s.Accesses) {
			end, _ := cache.AppendAccessInfos(nil, s.Accesses[:whole+1])
			if len(end) > cut {
				break
			}
			whole++
		}
		for _, count := range []int{whole, whole + 1, len(s.Accesses)} {
			img := append(append([]byte(nil), snapshotMagic[:]...), keyBytes...)
			for _, v := range []uint64{uint64(count), 0, 7, 8, 9} {
				img = binary.AppendUvarint(img, v)
			}
			img = append(img, recs[:cut]...)
			img = binary.LittleEndian.AppendUint32(img, crc32.Checksum(img, crcTable))

			want := make([]cache.AccessInfo, count)
			n, err := cache.DecodeAccessInfos(recs[:cut], want)
			wantOK := err == nil && n == cut
			got, err := readSnapshot(bytes.NewReader(img), int64(len(img)), smallSnapshotBuf, key, s.Model)
			if (err == nil) != wantOK {
				t.Fatalf("cut %d, %d records: the chunked reader accepts %v, the one-shot decoder %v", cut, count, err == nil, wantOK)
			}
			if wantOK {
				accepted++
				if !slices.Equal(got.Accesses, want) {
					t.Fatalf("cut %d, %d records: the chunked reader's records differ from the one-shot decoder's", cut, count)
				}
			}
		}
	}
	if accepted < 10 {
		t.Errorf("only %d of the cut images were accepted: the table tests rejection alone", accepted)
	}
}

// FuzzDecodeSnapshot fuzzes the snapshot container around the record
// codec: magic, key, header and CRC trailer, seeded with a real image,
// its truncations, a flipped CRC and the image under the wrong key.
// decodeSnapshot must never panic, an image it accepts must re-encode to
// exactly its own bytes, and the file reader must give the same answer
// through its own buffer and through one just above one record, where
// the seed image spans well over a hundred chunks.
func FuzzDecodeSnapshot(f *testing.F) {
	s := randomStream(rand.New(rand.NewSource(11)), 300)
	key := Key(s.Model, cache.DefaultConfig(), 1)
	otherKey := Key(s.Model, cache.DefaultConfig(), 2)
	img, err := encodeSnapshot(key, s)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := decodeSnapshot(img, key, s.Model); err != nil {
		f.Fatalf("seed image does not decode: %v", err)
	}
	if chunks := len(img) / smallSnapshotBuf; chunks < 100 {
		f.Fatalf("the seed image spans only %d chunks of the small buffer", chunks)
	}
	badCRC := append([]byte(nil), img...)
	badCRC[len(badCRC)-1] ^= 1
	for _, seed := range [][]byte{img, img[:len(img)-1], img[:len(img)-4], img[:len(img)/2], img[:49], img[:40], img[:8], nil, badCRC} {
		f.Add(seed, false)
	}
	f.Add(img, true)
	f.Fuzz(func(t *testing.T, data []byte, wrongKey bool) {
		k := key
		if wrongKey {
			k = otherKey
		}
		got, err := decodeSnapshot(data, k, s.Model)
		for _, buf := range []int{smallSnapshotBuf, snapshotBuf} {
			read, rerr := readSnapshot(bytes.NewReader(data), int64(len(data)), buf, k, s.Model)
			if (rerr == nil) != (err == nil) || err == nil && !sameStream(read, got) {
				t.Fatalf("through a %d-byte buffer the reader accepts %v, the one-shot decode %v, or they decode differently", buf, rerr == nil, err == nil)
			}
		}
		if err != nil {
			return
		}
		re, err := encodeSnapshot(k, got)
		if err != nil {
			t.Fatalf("re-encoding an accepted image: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted image of %d bytes re-encodes to %d different bytes", len(data), len(re))
		}
	})
}
