package sim

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"testing"

	"sharellc/internal/cache"
	"sharellc/internal/report"
)

var update = flag.Bool("update", false, "rewrite testdata/catalogue.golden from this run")

// goldenPath is the catalogue golden: the SHA-256 of every rendered
// table of every experiment over the full suite at a tiny scale, for
// each of goldenSeeds. Its layout follows bench/golden: section (here
// the experiment id) → "<normalized JobRequest JSON>#<table index>" →
// hash of the table's text rendering. internal/cluster's end-to-end
// test checks the same entries.
const goldenPath = "testdata/catalogue.golden"

// goldenSeeds are the stream seeds the golden covers.
var goldenSeeds = []uint64{1, 2}

// rowPinned lists the experiments whose entries also hash each table's
// merged rows, as the JSON array of that table's rows, under
// "<key> rows". F7 and A2 print their rates to three decimals, which hide
// a single flipped verdict; their rows carry the raw confusion counts.
// F4, F5, A1, A3 and M1 print shared-hit percentages to two decimals,
// which hide a drift of one shared hit; their rows carry the shared-hit
// counts or fractions at full precision. F1, F2 and F3 print the census
// to two decimals, which hides a drift of one hit; their rows carry the
// raw counts and full-precision fractions. C1 prints its rates per 1000
// references to two decimals, which hides a drift of a few coherence
// events; its rows carry the rates at full precision and the reference
// count. C2 prints its bucket shares to two decimals and F9 prints no
// persist/flip counts, which hide a drift of one access or one
// transition; their rows carry the shares, flip rate and mixed fraction
// at full precision.
var rowPinned = map[string]bool{"f1": true, "f2": true, "f3": true, "f7": true, "a2": true, "f4": true, "f5": true, "a1": true, "a3": true, "m1": true, "c1": true, "c2": true, "f9": true}

type catalogueGolden struct {
	Hashes map[string]map[string]string `json:"hashes"`
}

// goldenRequest is the golden's job for exp at seed. At 128 KB the LLC
// is small enough for F5 to gain at both sizes and for M1 to print
// exactly 0.00 %; at 256 KB F5's doubled size evicts nothing.
func goldenRequest(exp string, seed uint64) JobRequest {
	req := JobRequest{Exp: exp, Request: Request{LLCMB: 0.125, Ways: 16, Seed: seed, Scale: 0.02}}
	if err := req.Normalize(); err != nil {
		panic(err)
	}
	return req
}

// goldenKeys files exp's n tables at seed: one key per table, and one
// more per table for a rowPinned experiment's rows.
func goldenKeys(exp string, seed uint64, n int) (tables, rows []string) {
	b, err := json.Marshal(goldenRequest(exp, seed))
	if err != nil {
		panic(err)
	}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("%s#%d", b, i)
		tables = append(tables, key)
		if rowPinned[exp] {
			rows = append(rows, key+" rows")
		}
	}
	return tables, rows
}

func hashOf(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// runCatalogue runs every experiment at seed through RunExperiments at
// GOMAXPROCS=procs (left there for the rest of the test) and files each table's hash, and the row
// hashes of the rowPinned experiments, like the golden. It also returns
// each experiment's table count.
func runCatalogue(t *testing.T, seed uint64, procs int) (got map[string]map[string]string, counts map[string]int) {
	t.Helper()
	setProcs(t, procs)
	ids := ExperimentIDs()
	req := goldenRequest(ids[0], seed)
	cfg, err := req.Config(cache.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	got, counts = map[string]map[string]string{}, map[string]int{}
	next := 0
	err = RunExperiments(context.Background(), cfg, ids, req.Options(), nil, func(tabs []*report.Table) error {
		exp := ids[next]
		next++
		keys, _ := goldenKeys(exp, seed, len(tabs))
		got[exp], counts[exp] = map[string]string{}, len(tabs)
		for i, tab := range tabs {
			var b bytes.Buffer
			if err := tab.Render(&b); err != nil {
				return err
			}
			got[exp][keys[i]] = hashOf(b.Bytes())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for exp := range rowPinned {
		specs, _ := PlanFor(exp, req.Options())
		_, keys := goldenKeys(exp, seed, counts[exp])
		for _, sp := range specs {
			rows, err := sp.Run(s)
			if err != nil {
				t.Fatal(err)
			}
			b, err := EncodeRows(rows)
			if err != nil {
				t.Fatal(err)
			}
			var tables []json.RawMessage
			if err := json.Unmarshal(b, &tables); err != nil {
				t.Fatal(err)
			}
			for _, tab := range tables {
				got[exp][keys[0]] = hashOf(tab)
				keys = keys[1:]
			}
		}
	}
	return got, counts
}

// TestCatalogueGolden is the byte-identity check every refactor leans
// on: the whole catalogue at seeds 1 and 2 at GOMAXPROCS=1 (the worker
// pool has no helper), and seed 1 again at GOMAXPROCS=4, must hash to
// the checked-in golden. -short runs only the GOMAXPROCS=4 seed-1 pass. A deliberate table change
// rewrites the file with
//
//	go test ./internal/sim -run TestCatalogueGolden -update
//
// and is declared as such in the change's notes.
func TestCatalogueGolden(t *testing.T) {
	type pass struct {
		seed  uint64
		procs int
	}
	passes := []pass{{1, 1}, {2, 1}, {1, 4}}
	if testing.Short() {
		if *update {
			t.Fatal("-update needs every seed: drop -short")
		}
		passes = passes[2:]
	}
	var want catalogueGolden
	if *update {
		want.Hashes = map[string]map[string]string{}
	} else {
		data, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("%s: %v", goldenPath, err)
		}
	}

	var counts map[string]int // experiment id → table count
	for _, p := range passes {
		got, n := runCatalogue(t, p.seed, p.procs)
		counts = n
		for exp, m := range got {
			for key, h := range m {
				if *update && p.procs == 1 {
					if want.Hashes[exp] == nil {
						want.Hashes[exp] = map[string]string{}
					}
					want.Hashes[exp][key] = h
					continue
				}
				if w, ok := want.Hashes[exp][key]; ok && w != h {
					t.Errorf("%s at GOMAXPROCS=%d: %s hashes to %.12s, golden has %.12s", exp, p.procs, key, h, w)
				}
			}
		}
	}
	if *update {
		data, err := json.MarshalIndent(want, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Coverage: the file holds exactly every table of every experiment
	// at every golden seed, so a new experiment or table without an
	// -update, or an entry nothing renders any more, fails by name.
	expected := map[string]bool{}
	for _, exp := range ExperimentIDs() {
		for _, seed := range goldenSeeds {
			tables, rows := goldenKeys(exp, seed, counts[exp])
			for _, key := range append(tables, rows...) {
				expected[exp+" "+key] = true
				if want.Hashes[exp][key] == "" {
					t.Errorf("%s: golden has no entry %s (rerun with -update)", exp, key)
				}
			}
		}
	}
	var stale []string
	for exp, m := range want.Hashes {
		for key := range m {
			if !expected[exp+" "+key] {
				stale = append(stale, exp+" "+key)
			}
		}
	}
	sort.Strings(stale)
	for _, s := range stale {
		t.Errorf("stale golden entry %s: no experiment renders it (rerun with -update)", s)
	}
}
