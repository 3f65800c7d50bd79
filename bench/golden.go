package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"sync"
)

// request is one experiment request, with the field names of the
// sharesimd job API. The in-process workloads and the daemon take the
// same value, and its JSON is the key its golden hashes are filed under.
type request struct {
	Exp       string   `json:"exp"`
	LLCMB     float64  `json:"llc_mb,omitempty"`
	Ways      int      `json:"ways,omitempty"`
	Seed      uint64   `json:"seed,omitempty"`
	Scale     float64  `json:"scale,omitempty"`
	Workloads []string `json:"workloads,omitempty"`
	Policies  []string `json:"policies,omitempty"`
}

func (r request) key() string {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // a struct of strings and numbers always marshals
	}
	return string(b)
}

// golden holds the SHA-256 of every output the benchmark checks, for one
// stream seed at one scale: section (a workload name, or "probe") → key →
// hash. For rendered text tables the key is "<request>#<table index>",
// for daemon jobs it is the request and the hash covers the job's whole
// "tables" array.
type golden struct {
	Seed   uint64                       `json:"seed"`
	Scale  float64                      `json:"scale"`
	Hashes map[string]map[string]string `json:"hashes"`

	mu        sync.Mutex
	record    bool // -update-golden: store what is seen instead of checking it
	attempted int
	failed    int
	firstBad  string
}

func hashOf(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// check counts one output against the golden and reports whether it matched.
func (g *golden) check(section, key string, output []byte) bool {
	got := hashOf(output)
	g.mu.Lock()
	defer g.mu.Unlock()
	g.attempted++
	if g.record {
		if g.Hashes[section] == nil {
			g.Hashes[section] = map[string]string{}
		}
		g.Hashes[section][key] = got
		return true
	}
	if want, ok := g.Hashes[section][key]; ok && want == got {
		return true
	}
	g.fail(fmt.Sprintf("%s %s: hash %s does not match the golden", section, key, got[:12]))
	return false
}

// failOp counts an operation that produced no output to check.
func (g *golden) failOp(what string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.attempted++
	g.fail(what)
}

func (g *golden) fail(what string) {
	g.failed++
	if g.firstBad == "" {
		g.firstBad = what
	}
}

var goldenName = regexp.MustCompile(`^seed-(\d+)\.json$`)

// goldenSeeds lists the stream seeds that have a golden file in dir.
func goldenSeeds(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seeds []uint64
	for _, e := range entries {
		if m := goldenName.FindStringSubmatch(e.Name()); m != nil {
			s, _ := strconv.ParseUint(m[1], 10, 64)
			seeds = append(seeds, s)
		}
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	return seeds, nil
}

func goldenPath(dir string, seed uint64) string {
	return filepath.Join(dir, fmt.Sprintf("seed-%d.json", seed))
}

func loadGolden(dir string, seed uint64, scale float64) (*golden, error) {
	data, err := os.ReadFile(goldenPath(dir, seed))
	if err != nil {
		return nil, err
	}
	g := &golden{}
	if err := json.Unmarshal(data, g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath(dir, seed), err)
	}
	if g.Seed != seed || g.Scale != scale {
		return nil, fmt.Errorf("%s holds seed %d at scale %g, the run wants seed %d at scale %g",
			goldenPath(dir, seed), g.Seed, g.Scale, seed, scale)
	}
	return g, nil
}

// save merges the recorded hashes into the file for g's seed, so each
// workload's child process can add its own.
func (g *golden) save(dir string) error {
	merged := &golden{Seed: g.Seed, Scale: g.Scale, Hashes: map[string]map[string]string{}}
	if old, err := loadGolden(dir, g.Seed, g.Scale); err == nil {
		merged.Hashes = old.Hashes
	}
	for section, m := range g.Hashes {
		if merged.Hashes[section] == nil {
			merged.Hashes[section] = map[string]string{}
		}
		for k, h := range m {
			merged.Hashes[section][k] = h
		}
	}
	data, err := json.MarshalIndent(merged, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(goldenPath(dir, g.Seed), append(data, '\n'), 0o644)
}
