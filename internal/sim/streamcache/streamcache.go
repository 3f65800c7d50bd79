// Package streamcache is a two-level cache of prepared LLC reference
// streams (sim.Stream). The stream a workload presents to the LLC is
// LLC-independent — the private L1/L2 hierarchy fixes it per
// (model, private geometry, seed) — yet it is by far the most expensive
// part of suite construction. The cache removes that cost from every
// path that repeats it:
//
//   - an in-process level shares built *sim.Stream values between
//     concurrent and sequential suite constructions (daemon jobs, CLI
//     invocations inside one process, benchmarks), with singleflight
//     coalescing so N requesters of the same key trigger exactly one
//     build, and an LRU byte budget bounding resident stream memory;
//   - an on-disk level snapshots each stream into a versioned,
//     checksummed flat binary file (cache.AppendAccessInfos records
//     under a small header), so later processes skip generation and
//     private-hierarchy filtering entirely and decode the stream from
//     its file through one fixed buffer.
//
// Correctness contract: a stream served from either level is
// bit-identical to what sim.BuildStream would have produced — snapshots
// store every AccessInfo field (or reconstruct it exactly), and any
// corruption, truncation or version mismatch on disk falls back to
// rebuild-and-rewrite, never to an error or a wrong stream.
package streamcache

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"unsafe"

	"sharellc/internal/cache"
	"sharellc/internal/lru"
	"sharellc/internal/sim"
	"sharellc/internal/workloads"
)

// codecVersion is the snapshot format version. It participates in both
// the cache key and the file magic, so a bump invalidates every existing
// snapshot (old files are simply never looked up again, and a forged
// lookup ignores them on the magic check). Version 2: BlockIDs became
// shard-major (cache.AssignBlockIDs) — the byte format is unchanged,
// but older snapshots carry the first-touch numbering, and every ID-keyed
// result must see one numbering.
const codecVersion = 2

// defaultMemBudget bounds resident stream bytes when Options.MemBudget
// is zero: two full-size 22-workload suites fit comfortably.
const defaultMemBudget = 2 << 30

// Options configures a Cache.
type Options struct {
	// Dir is the snapshot directory. Empty disables the disk level (the
	// process level still works). DirFromFlag("auto") picks the
	// conventional per-user location.
	Dir string
	// MemBudget caps the bytes of stream data resident in the process
	// level; least-recently-used streams are evicted past it. 0 means
	// defaultMemBudget, negative means unlimited. The budget is advisory
	// per insertion: the most recently inserted stream is never evicted,
	// so a single stream larger than the budget still caches.
	MemBudget int64
	// DiskBudget caps the total bytes of snapshot files in Dir;
	// least-recently-used snapshots are deleted past it (the newest file
	// is never evicted, mirroring MemBudget). 0 or negative means
	// unlimited — the historical behaviour. Existing snapshots found in
	// Dir at construction join the LRU ordered by modification time.
	DiskBudget int64
	// BuildHook, when non-nil, runs at the start of every full stream
	// build (after both cache levels and any peer transfer missed).
	// Cluster tests use it to assert each stream is built at most once
	// cluster-wide, and to stall builds; it runs outside the cache lock.
	BuildHook func(key string)
}

// Stats is a snapshot of the cache's counters.
type Stats struct {
	Hits      uint64 // process-level hits
	Misses    uint64 // process-level misses (disk probe and/or build followed)
	Coalesced uint64 // lookups that joined an in-flight build
	DiskHits  uint64 // snapshot loads
	DiskMiss  uint64 // snapshot absent, stale or corrupt
	Builds    uint64 // full BuildStream runs
	Evictions uint64 // process-level LRU evictions

	Puts          uint64 // snapshots installed via PutSnapshot (peer transfer)
	DiskEvictions uint64 // snapshot files deleted by the disk byte budget

	BytesInMem   uint64 // resident stream bytes (gauge)
	Entries      int    // resident streams (gauge)
	DiskBytes    uint64 // snapshot-store bytes under the budget's accounting (gauge)
	DiskFiles    int    // snapshot files tracked (gauge)
	BytesRead    uint64 // snapshot bytes read from disk
	BytesWritten uint64 // snapshot bytes written to disk
}

// DirFromFlag maps the conventional -cachedir flag value shared by
// cmd/sharesim and cmd/sharesimd to a snapshot directory: "auto" picks
// the conventional os.UserCacheDir()/sharellc, "off" disables the disk
// level, anything else is a literal path. ok reports whether the disk
// level is wanted at all ("off", or "auto" on a platform with no user
// cache directory, return false).
func DirFromFlag(v string) (dir string, ok bool) {
	switch v {
	case "off", "":
		return "", false
	case "auto":
		base, err := os.UserCacheDir()
		if err != nil {
			return "", false
		}
		return filepath.Join(base, "sharellc"), true
	default:
		return v, true
	}
}

// Cache is the two-level stream cache. The zero value is not usable;
// call New.
type Cache struct {
	dir string

	mu       sync.Mutex
	mem      *lru.Cache[string, *sim.Stream] // resident streams, costed in bytes
	inflight map[string]*flight
	stats    Stats

	// disk holds one entry per snapshot file, costed in file bytes
	// (empty when dir == ""). It tracks every file regardless of budget,
	// so the DiskBytes/DiskFiles gauges stay meaningful; an eviction
	// removes the file under mu, which is fine for the small snapshot
	// counts involved.
	disk *lru.Cache[string, struct{}]

	// buildHook, when non-nil, runs at the start of every full build
	// (after both cache levels missed). Tests use it to count and to
	// stall builds; it runs outside mu.
	buildHook func(key string)
}

// flight is one in-progress build that later requesters of the same key
// join instead of duplicating.
type flight struct {
	done chan struct{} // closed after s/err are set
	s    *sim.Stream
	err  error
}

// New builds a Cache. When opts.Dir is non-empty it is created
// immediately; a directory that cannot be created disables the disk
// level rather than failing (the cache is an optimization, never a
// correctness dependency).
func New(opts Options) *Cache {
	c := &Cache{dir: opts.Dir, inflight: map[string]*flight{}, buildHook: opts.BuildHook}
	budget := opts.MemBudget
	if budget == 0 {
		budget = defaultMemBudget
	}
	c.mem = lru.New(budget, func(string, *sim.Stream) { c.stats.Evictions++ })
	c.disk = lru.New(opts.DiskBudget, func(key string, _ struct{}) {
		c.stats.DiskEvictions++
		os.Remove(c.snapshotPath(key))
	})
	if c.dir != "" {
		if err := os.MkdirAll(c.dir, 0o755); err != nil {
			c.dir = ""
		}
	}
	c.scanDisk()
	return c
}

// scanDisk seeds the disk LRU from snapshot files already present in the
// directory, oldest first so pre-existing files evict before anything
// written by this process. Non-snapshot files are ignored.
func (c *Cache) scanDisk() {
	if c.dir == "" {
		return
	}
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return
	}
	type old struct {
		key   string
		bytes int64
		mtime int64
	}
	var found []old
	for _, de := range entries {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, snapshotExt) {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		found = append(found, old{
			key:   strings.TrimSuffix(name, snapshotExt),
			bytes: info.Size(),
			mtime: info.ModTime().UnixNano(),
		})
	}
	sort.Slice(found, func(i, j int) bool { return found[i].mtime < found[j].mtime })
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, f := range found {
		c.disk.Put(f.key, struct{}{}, f.bytes)
	}
}

// Dir reports the active snapshot directory ("" when the disk level is
// disabled).
func (c *Cache) Dir() string { return c.dir }

// Stats returns a consistent snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.BytesInMem = uint64(c.mem.Cost())
	s.Entries = c.mem.Len()
	s.DiskBytes = uint64(c.disk.Cost())
	s.DiskFiles = c.disk.Len()
	return s
}

// Key derives the canonical content hash identifying one prepared
// stream: the snapshot codec version, the private-hierarchy geometry
// (the LLC fields are deliberately excluded — the stream does not depend
// on them, so jobs differing only in LLC size or policy share an entry),
// the seed, and every field of the already-scaled model. The model and
// geometry are rendered with %+v, so adding a field to either struct
// automatically changes the key rather than silently serving stale
// streams.
func Key(m workloads.Model, machine cache.Config, seed uint64) string {
	private := machine
	private.LLCSize, private.LLCWays = 0, 0
	h := sha256.Sum256([]byte(fmt.Sprintf("sharellc stream v%d\nmachine %+v\nseed %d\nmodel %+v\n",
		codecVersion, private, seed, m)))
	return fmt.Sprintf("%x", h)
}

// Stream returns the prepared stream for (m, machine, seed), consulting
// the process level, then the snapshot directory, then building. Its
// signature is exactly sim.StreamProvider, so a Cache plugs into
// sim.Config as cfg.Streams = c.Stream.
func (c *Cache) Stream(ctx context.Context, m workloads.Model, machine cache.Config, seed uint64) (*sim.Stream, error) {
	key := Key(m, machine, seed)
	for {
		c.mu.Lock()
		if s, ok := c.mem.Get(key); ok {
			c.stats.Hits++
			c.mu.Unlock()
			return s, nil
		}
		if fl, ok := c.inflight[key]; ok {
			c.stats.Coalesced++
			c.mu.Unlock()
			select {
			case <-fl.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if fl.err == nil {
				return fl.s, nil
			}
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			// The builder failed — possibly because *its* context was
			// cancelled, which must not poison requesters that are still
			// live. Loop and retry (becoming the builder if needed); a
			// deterministic failure recurs and is returned below.
			continue
		}
		c.stats.Misses++
		fl := &flight{done: make(chan struct{})}
		c.inflight[key] = fl
		c.mu.Unlock()

		s, err := c.fetchOrBuild(key, m, machine, seed)

		c.mu.Lock()
		delete(c.inflight, key)
		if err == nil {
			c.insertLocked(key, s)
		}
		c.mu.Unlock()
		fl.s, fl.err = s, err
		close(fl.done)
		return s, err
	}
}

// fetchOrBuild is the miss path: snapshot load if the disk level is
// enabled, else a full build followed by a best-effort snapshot write
// (which also repairs corrupt or stale files by overwriting them).
func (c *Cache) fetchOrBuild(key string, m workloads.Model, machine cache.Config, seed uint64) (*sim.Stream, error) {
	if c.dir != "" {
		if s, n, ok := loadSnapshot(c.snapshotPath(key), key, m); ok {
			c.mu.Lock()
			c.stats.DiskHits++
			c.stats.BytesRead += uint64(n)
			c.disk.Get(key)
			c.mu.Unlock()
			return s, nil
		}
		c.mu.Lock()
		c.stats.DiskMiss++
		c.mu.Unlock()
	}
	if hook := c.buildHook; hook != nil {
		hook(key)
	}
	c.mu.Lock()
	c.stats.Builds++
	c.mu.Unlock()
	s, err := sim.BuildStream(m, machine, seed)
	if err != nil {
		return nil, err
	}
	if c.dir != "" {
		if n, err := writeSnapshot(c.snapshotPath(key), key, s); err == nil {
			c.mu.Lock()
			c.stats.BytesWritten += uint64(n)
			c.disk.Put(key, struct{}{}, int64(n))
			c.mu.Unlock()
		}
	}
	return s, nil
}

// snapshotExt is the snapshot file suffix under the cache directory.
const snapshotExt = ".sllc"

// snapshotPath maps a key to its snapshot file.
func (c *Cache) snapshotPath(key string) string {
	return filepath.Join(c.dir, key+snapshotExt)
}

// Contains reports whether the cache can serve key without a build: the
// stream is resident in the process level, or a snapshot file for it is
// tracked on disk. A tracked file that was deleted behind the cache's
// back makes Contains optimistic; SnapshotBytes and Stream still fall
// soft in that case.
func (c *Cache) Contains(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mem.Contains(key) || c.disk.Contains(key)
}

// SnapshotBytes returns the validated snapshot image for key, for
// serving to a peer over GET /v1/streams/{hash}. It prefers the disk
// file (checked against the key, magic and checksum before serving, so a
// corrupt file is never propagated) and falls back to encoding the
// resident in-memory stream when the disk level is off or the file is
// missing. ok is false when the cache cannot produce a valid image.
func (c *Cache) SnapshotBytes(key string) (data []byte, ok bool) {
	if c.dir != "" {
		if b, err := os.ReadFile(c.snapshotPath(key)); err == nil {
			if validateSnapshot(b, key) == nil {
				c.mu.Lock()
				c.stats.BytesRead += uint64(len(b))
				c.disk.Get(key)
				c.mu.Unlock()
				return b, true
			}
		}
	}
	c.mu.Lock()
	s, resident := c.mem.Get(key)
	c.mu.Unlock()
	if !resident {
		return nil, false
	}
	b, err := encodeSnapshot(key, s)
	if err != nil {
		return nil, false
	}
	return b, true
}

// PutSnapshot installs a peer-transferred snapshot image under key and
// returns the decoded stream. The image is fully validated (magic, key,
// checksum, record decode) before anything is stored — a truncated or
// corrupt transfer returns an error and leaves both cache levels
// untouched, so the caller falls soft to a local rebuild. On success the
// stream becomes resident in the process level and, when the disk level
// is on, the image is atomically written into the snapshot store.
func (c *Cache) PutSnapshot(key string, data []byte, m workloads.Model) (*sim.Stream, error) {
	s, err := decodeSnapshot(data, key, m)
	if err != nil {
		return nil, fmt.Errorf("streamcache: rejecting snapshot for %s: %w", key, err)
	}
	c.mu.Lock()
	c.stats.Puts++
	c.insertLocked(key, s)
	c.mu.Unlock()
	if c.dir != "" {
		if err := writeSnapshotBytes(c.snapshotPath(key), data); err == nil {
			c.mu.Lock()
			c.stats.BytesWritten += uint64(len(data))
			c.disk.Put(key, struct{}{}, int64(len(data)))
			c.mu.Unlock()
		}
	}
	return s, nil
}

// streamBytes approximates a stream's resident size for the byte budget:
// the access slice dominates everything else.
func streamBytes(s *sim.Stream) int64 {
	return int64(len(s.Accesses)) * int64(unsafe.Sizeof(cache.AccessInfo{}))
}

// insertLocked adds a freshly obtained stream to the process level,
// which evicts LRU entries past the byte budget but never the new entry,
// so oversized streams still serve the requesters that are about to read
// them. A stream already resident under key (a lost cross-key race) is
// kept. Caller holds c.mu.
func (c *Cache) insertLocked(key string, s *sim.Stream) {
	if _, ok := c.mem.Get(key); !ok {
		c.mem.Put(key, s, streamBytes(s))
	}
}
