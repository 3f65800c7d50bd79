package sim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"

	"sharellc/internal/cache"
	"sharellc/internal/core"
	"sharellc/internal/oracle"
	"sharellc/internal/policy"
	"sharellc/internal/report"
	"sharellc/internal/sharing"
	"sharellc/internal/stats"
	"sharellc/internal/workloads"
)

// This file is the experiment index: the single catalogue of every
// experiment id the repository serves, shared by the sharesim CLI and
// the sharesimd daemon so the two can never drift apart. Each entry
// turns a prepared Suite plus per-run knobs into the experiment's
// report tables. The file also holds the request knobs every front end
// shares (Request), the one job request over them (JobRequest) and the
// one path from them to tables (RunExperiments).

// ExpOptions carries the per-run knobs shared by every experiment.
type ExpOptions struct {
	LLCSize  int // LLC capacity in bytes (f2/f5 derive the doubled size from it)
	LLCWays  int
	Policies []string     // f5's base-policy list (nil = LRU only)
	Prot     core.Options // protection options for the oracle/predictor families
}

// Request holds the knobs every front end shares. The job body embeds
// it, so its JSON carries these fields flat. Zero fields take the
// defaults Normalize fills.
type Request struct {
	LLCMB     float64  `json:"llc_mb,omitempty"`
	Ways      int      `json:"ways,omitempty"`
	Seed      uint64   `json:"seed,omitempty"`
	Scale     float64  `json:"scale,omitempty"`
	Workloads []string `json:"workloads,omitempty"`
	Policies  []string `json:"policies,omitempty"`
	Strength  string   `json:"strength,omitempty"`
}

// JobRequest is one job: an experiment id over the shared knobs. It is
// the body of the daemon's POST /v1/jobs, and the cluster carries it
// unchanged from the daemon's job manager through the coordinator to
// every bundle. Zero knobs take Request's defaults, so `{"exp":"f1"}` is
// a complete job.
type JobRequest struct {
	Exp string `json:"exp"`
	Request
}

// Normalize validates the experiment id against the index and
// normalizes the knobs. The normalized form is what Key hashes, so two
// jobs that differ only in omitted-vs-explicit defaults share a key.
func (r *JobRequest) Normalize() error {
	r.Exp = strings.ToLower(strings.TrimSpace(r.Exp))
	if r.Exp == "" {
		return errors.New("missing required field \"exp\"")
	}
	if r.Exp == "all" {
		return errors.New("\"all\" is a CLI convenience; submit one job per experiment")
	}
	if _, err := ExperimentByID(r.Exp); err != nil {
		return err
	}
	return r.Request.normalize()
}

// Key is the hash of the normalized job's canonical JSON. Everything
// that changes a job's tables is part of JobRequest, so the key covers
// the experiment id, the LLC, the seed, the scale and the workloads. The
// daemon's result cache and coalescing map and the cluster's bundle IDs
// all derive from it.
func (r JobRequest) Key() string {
	b, _ := json.Marshal(r)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// maxLLCMB caps a request's LLC size in MB. Experiments replay up to
// twice the requested size (f2, f5), and F4's 14 lanes keep about 9.5
// bytes of per-line state per LLC byte, so one workload's F4 lanes at
// twice this cap hold about 600 MB.
const maxLLCMB = 32

// maxWays is the widest associativity every catalogue policy supports:
// PLRU keeps one 64-bit tree per set.
const maxWays = 64

// normalize fills the defaults (4 MB, 16 ways, seed 1, scale 1, full
// strength), bounds every knob (the LLC through CheckGeometry),
// lower-cases and sorts the workloads and lower-cases the policies,
// rejecting a name the suite or the policy catalogue does not know. The
// normalized form is what a job key hashes, so requests differing only
// in omitted-vs-explicit defaults coalesce.
func (r *Request) normalize() error {
	if r.LLCMB == 0 {
		r.LLCMB = 4
	}
	if r.Ways == 0 {
		r.Ways = 16
	}
	if err := r.CheckGeometry(); err != nil {
		return err
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.Scale == 0 {
		r.Scale = 1
	}
	if r.Scale < 0 || r.Scale > 1 {
		return fmt.Errorf("scale must be in (0, 1], got %g", r.Scale)
	}
	if r.Strength == "" {
		r.Strength = "full"
	}
	if r.Strength != "full" && r.Strength != "insert-only" {
		return fmt.Errorf("unknown strength %q (want full or insert-only)", r.Strength)
	}
	for i, w := range r.Workloads {
		r.Workloads[i] = strings.ToLower(strings.TrimSpace(w))
	}
	sort.Strings(r.Workloads)
	if _, err := ModelsByName(r.Workloads); err != nil {
		return err
	}
	for i, p := range r.Policies {
		r.Policies[i] = strings.ToLower(strings.TrimSpace(p))
		if _, err := policy.ByName(r.Policies[i], r.Seed); err != nil {
			return err
		}
	}
	return nil
}

// CheckGeometry rejects an LLC that some catalogue policy cannot run:
// more than maxLLCMB, a way count that is not a power of two up to
// maxWays, or a size that does not split into a power-of-two number of
// sets. Every front end applies it before preparing any stream.
func (r Request) CheckGeometry() error {
	if !(r.LLCMB > 0 && r.LLCMB <= maxLLCMB) {
		return fmt.Errorf("llc_mb must be in (0, %d], got %g", maxLLCMB, r.LLCMB)
	}
	if r.Ways < 1 || r.Ways > maxWays || r.Ways&(r.Ways-1) != 0 {
		return fmt.Errorf("ways must be a power of two in [1, %d], got %d", maxWays, r.Ways)
	}
	if _, err := cache.Geometry(r.Options().LLCSize, r.Ways); err != nil {
		return fmt.Errorf("llc_mb %g at %d ways: %w", r.LLCMB, r.Ways, err)
	}
	return nil
}

// Options maps the request onto the experiment index's options.
func (r Request) Options() ExpOptions {
	o := DefaultExpOptions()
	o.LLCSize = int(r.LLCMB * float64(cache.MB))
	o.LLCWays = r.Ways
	o.Policies = r.Policies
	if r.Strength == "insert-only" {
		o.Prot.Strength = core.InsertOnly
	}
	return o
}

// Config maps the request onto a suite configuration on machine, with
// the workloads resolved in the order the request lists them.
func (r Request) Config(machine cache.Config) (Config, error) {
	models, err := ModelsByName(r.Workloads)
	if err != nil {
		return Config{}, err
	}
	return Config{Machine: machine, Seed: r.Seed, Scale: r.Scale, Models: models}, nil
}

// RunExperiments is the one path from a request to its tables that
// every front end takes. It resolves every id first, so an unknown one
// fails before any work; prepares the suite cfg describes, under ctx,
// once for all of them (suiteFor: its streams only when some requested
// spec reads them per workload); then runs the experiments in order,
// each one's cells at once over the prepared streams (Experiment.Run),
// handing each one's tables to emit before the next starts. progress,
// when non-nil, receives each experiment's finished cells; cfg.Progress
// reports the preparation. The experiments share cfg.Lanes, or a lane
// memo of the call's own when it is nil, so a lane that several of them
// replay runs once.
func RunExperiments(ctx context.Context, cfg Config, ids []string, o ExpOptions,
	progress func(done, total int, label string), emit func([]*report.Table) error) error {
	if cfg.Lanes == nil {
		cfg.Lanes = NewLaneMemo()
	}
	exps := make([]Experiment, len(ids))
	var specs []tableSpec
	for i, id := range ids {
		e, err := ExperimentByID(id)
		if err != nil {
			return err
		}
		exps[i] = e
		if sp, ok := planFor(e.ID, o); ok {
			specs = append(specs, sp)
		}
	}
	suite, err := suiteFor(ctx, cfg, specs)
	if err != nil {
		return err
	}
	for _, e := range exps {
		tables, err := e.run(suite, o, progress)
		if err != nil {
			return err
		}
		if err := emit(tables); err != nil {
			return err
		}
	}
	return nil
}

// DefaultExpOptions is the paper's setup: 4 MB, 16-way, full protection.
func DefaultExpOptions() ExpOptions {
	return ExpOptions{
		LLCSize: 4 * cache.MB,
		LLCWays: 16,
		Prot:    core.Options{Strength: core.Full},
	}
}

// Experiment is one entry of the experiment index.
type Experiment struct {
	ID    string
	Title string // short human description for catalogues (-exp listings, /v1/experiments)
	// static renders the description table of an experiment planFor has
	// no plan for (config, suite).
	static func() *report.Table
}

// NeedsSuite reports whether the experiment reads streams: whether it
// has a table plan rather than a static table. The static description
// tables (config, suite) do not, and their Run ignores the *Suite
// argument.
func (e Experiment) NeedsSuite() bool { return e.static == nil }

// Run renders the experiment's tables: its static table, or its job
// over the workloads, seed and scale of the prepared suite s, whose
// cells read s's streams.
func (e Experiment) Run(s *Suite, o ExpOptions) ([]*report.Table, error) {
	return e.run(s, o, nil)
}

// run is Run reporting each finished cell to progress.
func (e Experiment) run(s *Suite, o ExpOptions, progress func(done, total int, label string)) ([]*report.Table, error) {
	if !e.NeedsSuite() {
		return []*report.Table{e.static()}, nil
	}
	if s == nil {
		return nil, fmt.Errorf("sim: experiment %q needs a prepared suite", e.ID)
	}
	req := JobRequest{Exp: e.ID, Request: Request{Seed: s.Config.Seed, Scale: s.Config.Scale}}
	job, _ := planJob(req, o, s.Config.Models)
	cfg := s.Config
	cfg.Streams, cfg.Progress = s.provider(), nil
	return job.runLocal(s.context(), cfg, progress)
}

// Experiments returns the full index in presentation order (the order
// `-exp all` runs them).
func Experiments() []Experiment {
	return []Experiment{
		{ID: "config", Title: "T1: the simulated machine configuration", static: configTable},
		{ID: "suite", Title: "T2: the workload suite and its sharing parameters", static: suiteTable},
		{ID: "f1", Title: "shared vs. private LLC hit volume (default-size LLC)"},
		{ID: "f2", Title: "shared vs. private LLC hit volume (doubled LLC)"},
		{ID: "f3", Title: "sharing-degree distribution"},
		{ID: "f4", Title: "policy comparison vs. LRU and Belady OPT"},
		{ID: "f5", Title: "oracle study at both LLC sizes (per-workload rows = F6)"},
		{ID: "f7", Title: "fill-time predictor accuracy"},
		{ID: "f8", Title: "predictor-driven replacement vs. the oracle ceiling"},
		{ID: "f9", Title: "sharing-phase stability (why the predictors fail)"},
		{ID: "c1", Title: "coherence-protocol traffic characterization (extension)"},
		{ID: "c2", Title: "reuse-distance distributions by sharing class (extension)"},
		{ID: "m1", Title: "oracle on multiprogrammed mixes (motivating contrast)"},
		{ID: "a1", Title: "ablation: protection strength (insert-only vs. full)"},
		{ID: "a2", Title: "ablation: predictor table-size sweep"},
		{ID: "a3", Title: "ablation: LLC associativity sweep"},
		{ID: "a4", Title: "ablation: oracle sharing-horizon sweep"},
		{ID: "a5", Title: "ablation: seed robustness of the oracle gain"},
	}
}

// ExperimentIDs lists the valid ids in index order.
func ExperimentIDs() []string {
	idx := Experiments()
	ids := make([]string, len(idx))
	for i, e := range idx {
		ids[i] = e.ID
	}
	return ids
}

// ExperimentByID resolves one id (case-insensitive). The error message
// enumerates every valid id so CLI and API users get a usable usage hint.
func ExperimentByID(id string) (Experiment, error) {
	id = strings.ToLower(id)
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("unknown experiment %q (valid ids: %s)",
		id, strings.Join(ExperimentIDs(), ", "))
}

// ModelsByName resolves a workload-name list into suite models; nil/empty
// means "full suite" (returned as nil, the Config convention). Unknown
// names fail with the full list of valid names in the message.
func ModelsByName(names []string) ([]workloads.Model, error) {
	if len(names) == 0 {
		return nil, nil
	}
	var out []workloads.Model
	for _, n := range names {
		m, err := workloads.ByName(strings.TrimSpace(n))
		if err != nil {
			var valid []string
			for _, wm := range workloads.Suite() {
				valid = append(valid, wm.Name)
			}
			sort.Strings(valid)
			return nil, fmt.Errorf("%w (valid workloads: %s)", err, strings.Join(valid, ", "))
		}
		out = append(out, m)
	}
	return out, nil
}

func mbLabel(size int) string {
	return fmt.Sprintf("%gMB", float64(size)/float64(cache.MB))
}

func configTable() *report.Table {
	t := report.NewTable("T1: simulated machine configuration", "component", "value")
	c := cache.DefaultConfig()
	t.MustRow("cores", fmt.Sprintf("%d", c.Cores))
	t.MustRow("L1D (per core)", fmt.Sprintf("%dKB, %d-way, 64B blocks, LRU", c.L1Size/cache.KB, c.L1Ways))
	t.MustRow("L2 (per core)", fmt.Sprintf("%dKB, %d-way, 64B blocks, LRU", c.L2Size/cache.KB, c.L2Ways))
	t.MustRow("LLC (shared)", fmt.Sprintf("4MB and 8MB, %d-way, 64B blocks, policy under study", c.LLCWays))
	t.MustRow("policies", strings.Join(policy.Names(1), ", "))
	t.Note = "functional (miss-count) model; inclusive LLC available via cache.System"
	return t
}

func suiteTable() *report.Table {
	t := report.NewTable("T2: workload suite",
		"workload", "suite", "threads", "refs", "footprint", "sh-RO%", "sh-RW%", "wr%", "description")
	for _, m := range workloads.Suite() {
		t.MustRow(
			m.Name, m.Suite, fmt.Sprintf("%d", m.Threads),
			fmt.Sprintf("%.1fM", float64(m.TotalAccesses())/1e6),
			fmt.Sprintf("%.1fMB", float64(m.FootprintBlocks())*64/float64(cache.MB)),
			stats.Pct(m.FracSharedRO), stats.Pct(m.FracSharedRW), stats.Pct(m.WriteFrac),
			m.Description)
	}
	return t
}

// m1Mixes are M1's three canonical 8-program multiprogrammed mixes drawn
// from the suite.
var m1Mixes = [][]string{
	{"swaptions", "blackscholes", "freqmine", "water", "equake", "lu", "bodytrack", "facesim"},
	{"canneal", "swaptions", "ocean", "blackscholes", "fft", "water", "dedup", "freqmine"},
	{"swaptions", "swaptions", "swaptions", "swaptions", "swaptions", "swaptions", "swaptions", "swaptions"},
}

// m1Rows runs M1 over m1Mixes, scaled and seeded like the suite itself.
func m1Rows(s *Suite, o ExpOptions) ([]OracleRow, error) {
	var mixes [][]workloads.Model
	for _, names := range m1Mixes {
		ms, err := ModelsByName(names)
		if err != nil {
			return nil, err
		}
		for i := range ms {
			ms[i] = scaleModel(ms[i], s.Config.Scale)
		}
		mixes = append(mixes, ms)
	}
	return MultiprogrammedOracle(s.context(), mixes, s.Config.Machine, s.Config.Seed, o.LLCSize, o.LLCWays, o.Prot)
}

// seedRow is one seed's result of the A5 ablation: the mean LRU oracle
// miss reduction over the a5 workload subset regenerated under it.
type seedRow struct {
	Seed      uint64
	Reduction float64 // mean over the subset's workloads
	Workloads int
}

// a5Workloads is the fixed workload subset the a5 seed-robustness
// ablation regenerates under each seed. Its request-seed streams share
// cache keys with the primary suite's, so the a5 spec names them for a
// scheduler to place.
func a5Workloads() []string {
	return []string{"canneal", "dedup", "barnes", "ocean", "streamcluster", "swaptions"}
}

// a5Seeds lists the seeds the a5 ablation sweeps.
func a5Seeds() []uint64 { return []uint64{1, 2, 3} }

// a5Rows measures seed robustness: it rebuilds the a5 subset under each
// seed, in its own sub-suite (the suite's prepared streams are not
// read), and averages the LRU oracle gain. Only miss counts are read, so
// the oracle study replays counts only.
func a5Rows(s *Suite, o ExpOptions) ([]seedRow, error) {
	sub, err := ModelsByName(a5Workloads())
	if err != nil {
		return nil, err
	}
	lanes := []lane{{policy: "lru", size: o.LLCSize, ways: o.LLCWays},
		{policy: "lru", size: o.LLCSize, ways: o.LLCWays, protected: true, prot: o.Prot, factor: oracle.HorizonFactor}}
	var rows []seedRow
	for _, seed := range a5Seeds() {
		cfg := s.Config
		cfg.Seed = seed
		cfg.Models = sub
		cfg.Lanes = nil // a private sub-suite, as m1's mixes: two of its three seeds are no other job's
		s2, err := NewSuiteContext(s.context(), cfg)
		if err != nil {
			return nil, err
		}
		reds, err := perStream(s2, "oracle study", func(st *Stream) ([]float64, error) {
			out, err := s2.replay(st, sharing.CountsOnly, lanes)
			if err != nil {
				return nil, err
			}
			return []float64{oracle.MissReduction(out[0].res, out[1].res)}, nil
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, seedRow{Seed: seed, Reduction: stats.Mean(reds), Workloads: len(reds)})
	}
	return rows, nil
}
