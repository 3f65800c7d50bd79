package streamcache

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
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

// FuzzDecodeSnapshot fuzzes the snapshot container around the record
// codec: magic, key, header and CRC trailer, seeded with a real image,
// its truncations, a flipped CRC and the image under the wrong key.
// decodeSnapshot must never panic, and an image it accepts must
// re-encode to exactly its own bytes.
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
