// Command bench is the repository's benchmark: four request-to-table
// workloads measured end to end, and a separate traced run that times
// every layer. BENCHMARK.json at the repository root declares the
// workloads and metrics; README.md in this directory explains them.
//
//	bash bench/run.sh                         every workload, tracing off
//	bash bench/run.sh --workload policy_sweep --seed 3 --seconds 12 --trace 0
//	bash bench/run.sh --workload cold_build --trace 1 --trace-summary
//	bash bench/run.sh --agree 2               two sets of every workload
//	bash bench/run.sh --update-golden --seed 1
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
)

// metricSet maps a metric's name to its value. Names that start with
// "info." are printed for the reader and never emitted as metrics.
type metricSet map[string]float64

// metricDecl is one metric as BENCHMARK.json declares it.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// contract is BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func loadContract(root string) (*contract, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	c := &contract{}
	if err := json.Unmarshal(data, c); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return c, nil
}

func (c *contract) hasWorkload(name string) bool {
	for _, w := range c.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// result is the last line a single-workload run prints: exactly the keys
// the driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type options struct {
	workload     string
	seed         uint64
	seconds      float64
	trace        int
	traceSummary bool
	scale        float64
	goldenDir    string
	update       bool
	agree        int
	root         string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run in this process (default: every workload, each in a child process)")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed: picks the stream seed among the golden files and orders the service job list")
	flag.Float64Var(&o.seconds, "seconds", 0, "run length the iteration counts are sized from (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&o.trace, "trace", 0, "1 = the separate per-layer run with spans on")
	flag.BoolVar(&o.traceSummary, "trace-summary", false, "with -trace 1: print self time per layer")
	flag.Float64Var(&o.scale, "scale", 1, "shrink every stream (the smoke test uses 0.05; golden files are per scale)")
	flag.StringVar(&o.goldenDir, "golden", "", "directory of golden files (default: bench/golden)")
	flag.BoolVar(&o.update, "update-golden", false, "regenerate the golden file for -seed instead of checking against it")
	flag.IntVar(&o.agree, "agree", 0, "run N sets of every workload and compare their medians with the bounds")
	flag.StringVar(&o.root, "root", "", "repository root; bench/run.sh passes it")
	flag.Parse()
	if err := realMain(o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func realMain(o options) error {
	if o.root == "" {
		return fmt.Errorf("no -root: start the benchmark with bench/run.sh, which builds what it runs")
	}
	c, err := loadContract(o.root)
	if err != nil {
		return err
	}
	if o.seconds == 0 {
		o.seconds = float64(c.RunSeconds)
	}
	if o.goldenDir == "" {
		o.goldenDir = filepath.Join(o.root, "bench", "golden")
	}
	if o.update {
		fmt.Println("================================================================")
		fmt.Printf("UPDATING %s: NOTHING IS CHECKED IN THIS RUN\n", goldenPath(o.goldenDir, o.seed))
		fmt.Println("================================================================")
	}
	switch {
	case o.agree > 0:
		return agree(o, c)
	case o.workload == "":
		if o.update {
			// start from nothing, so hashes of requests no longer made go
			if err := os.Remove(goldenPath(o.goldenDir, o.seed)); err != nil && !os.IsNotExist(err) {
				return err
			}
		}
		_, err := runAll(o, c, c.workloadNames())
		return err
	}
	if !c.hasWorkload(o.workload) {
		return fmt.Errorf("unknown workload %q (BENCHMARK.json lists %s)", o.workload, strings.Join(c.workloadNames(), ", "))
	}
	return runOne(o, c)
}

// workloadNames lists the declared workload names in order.
func (c *contract) workloadNames() []string {
	out := make([]string, len(c.Workloads))
	for i, w := range c.Workloads {
		out[i] = w.Name
	}
	return out
}

// streamSeed maps the input seed onto the stream seeds that have a golden
// file: table bytes can only be checked against hashes made beforehand, so
// the traces come from that set and the seed picks among them.
func streamSeed(o options) (uint64, error) {
	if o.update {
		return o.seed, nil
	}
	seeds, err := goldenSeeds(o.goldenDir)
	if err != nil {
		return 0, err
	}
	if len(seeds) == 0 {
		return 0, fmt.Errorf("no golden file seed-N.json in %s", o.goldenDir)
	}
	n := uint64(len(seeds))
	return seeds[(o.seed+n-1)%n], nil
}

// runOne runs one workload in this process and prints its result line.
func runOne(o options, c *contract) error {
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	stream, err := streamSeed(o)
	if err != nil {
		return err
	}
	out := filepath.Join(o.root, "bench", "out")
	r := &run{
		ctx: ctx, workload: o.workload, seed: o.seed, stream: stream, seconds: o.seconds, scale: o.scale,
		inputs:    filepath.Join(out, "inputs", fmt.Sprintf("seed-%d-scale-%g", stream, o.scale)),
		sharesimd: filepath.Join(out, "bin", "sharesimd"),
	}
	if r.g, err = openGolden(o, stream); err != nil {
		return err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	if r.workDir, err = os.MkdirTemp(out, "work-"); err != nil {
		return err
	}
	defer os.RemoveAll(r.workDir)

	// An update run is a traced one: it records the probe tables too.
	traced := o.trace == 1 || o.update
	host := readHost()
	before := spin()
	inProc := o.workload != "service_jobs"
	if traced || (inProc && !workloadByName(o.workload).cold) {
		if err := r.prepare(); err != nil {
			return err
		}
	}

	var ms metricSet
	switch {
	case traced:
		r.tr = newTracer(fmt.Sprintf("%s-seed%d-%d", o.workload, o.seed, os.Getpid()))
		ms, err = r.tracedRun()
	case inProc:
		ms, err = r.inProcessRun(workloadByName(o.workload))
	default:
		ms, err = r.serviceRun()
	}
	if err != nil {
		return err
	}
	after := spin()
	host.finish(before, after)
	ms["info.spin_ms"] = msOf(before+after) / 2

	declared := c.EndToEnd
	if traced {
		declared = c.PerLayer
		ms["bench.spin_drift_frac"] = host.SpinDrift
		spans := float64(len(r.tr.spans))
		ms["bench.trace_overhead_frac"] = spans * costPerSpan().Seconds() / r.tr.spans[0].End.Seconds()
		ms["info.spans"] = spans
		tracePath := filepath.Join(out, "trace-"+o.workload+".json")
		if err := r.tr.write(tracePath); err != nil {
			return err
		}
		fmt.Println("trace:", tracePath)
		if o.traceSummary {
			r.printSummary()
		}
	}
	if o.update {
		if err := r.g.save(o.goldenDir); err != nil {
			return err
		}
		fmt.Printf("GOLDEN UPDATED: %s now holds %d hashes for %s\n", goldenPath(o.goldenDir, stream), r.g.attempted, o.workload)
	}

	res := result{Correct: r.g.failed == 0, Attempted: r.g.attempted, Failed: r.g.failed, Metrics: map[string]metricValue{}}
	for _, d := range declared {
		v, ok := ms[d.Name]
		if !ok {
			return fmt.Errorf("workload %s did not measure the declared metric %s", o.workload, d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	printMetrics(o.workload, ms, declared)
	hostJSON, _ := json.Marshal(host) // a struct of numbers and strings always marshals
	fmt.Printf("host: %s\n", hostJSON)
	if host.Noisy {
		fmt.Printf("NOISY HOST: 1-min load %.2f on %d CPUs at the start, spin drift %+.1f%%\n", host.LoadAvg1, host.NProc, 100*host.SpinDrift)
	}
	if r.g.failed > 0 {
		fmt.Printf("FAILED %d of %d checks; first: %s\n", r.g.failed, r.g.attempted, r.g.firstBad)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d checks failed", o.workload, res.Failed, res.Attempted)
	}
	return nil
}

func openGolden(o options, stream uint64) (*golden, error) {
	if o.update {
		return &golden{Seed: stream, Scale: o.scale, Hashes: map[string]map[string]string{}, record: true}, nil
	}
	return loadGolden(o.goldenDir, stream, o.scale)
}

func printMetrics(workload string, ms metricSet, declared []metricDecl) {
	fmt.Printf("%-18s %-44s %16s %s\n", "workload", "metric", "value", "unit")
	for _, d := range declared {
		fmt.Printf("%-18s %-44s %16.6g %s\n", workload, d.Name, ms[d.Name], d.Unit)
	}
	var info []string
	for k := range ms {
		if strings.HasPrefix(k, "info.") {
			info = append(info, k)
		}
	}
	sort.Strings(info)
	for _, k := range info {
		fmt.Printf("%-18s %-44s %16.6g\n", workload, k, ms[k])
	}
}

// printSummary prints the traced run's self time per layer, then the
// estimated split of the workload's own iteration over the layers it calls.
func (r *run) printSummary() {
	fmt.Println("self time per layer over the traced run:")
	r.tr.summary(os.Stdout)
	if len(r.est) == 0 {
		return
	}
	fmt.Printf("estimated split of one %s iteration (%.2f s measured):\n", r.workload, r.estWallS)
	layers := make([]string, 0, len(r.est))
	for l := range r.est {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return r.est[layers[i]] > r.est[layers[j]] })
	for _, l := range layers {
		fmt.Printf("%-14s %12.3f %7.1f%%\n", l, r.est[l], 100*r.est[l]/r.estWallS)
	}
}

// childResult is one workload's child run as the parent read it.
type childResult struct {
	Workload string   `json:"workload"`
	Host     hostInfo `json:"host"`
	result
}

// runChild runs one workload in a fresh process, so its CPU time and peak
// memory belong to that workload alone, and echoes what it prints.
func runChild(o options, workload string) (*childResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-root", o.root, "-workload", workload, "-seed", fmt.Sprint(o.seed),
		"-seconds", fmt.Sprint(o.seconds), "-trace", fmt.Sprint(o.trace), "-scale", fmt.Sprint(o.scale),
		"-golden", o.goldenDir}
	if o.update {
		args = append(args, "-update-golden")
	}
	if o.traceSummary {
		args = append(args, "-trace-summary")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	outBytes, runErr := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(outBytes)), "\n")
	cr := &childResult{Workload: workload}
	for i, l := range lines {
		if rest, ok := strings.CutPrefix(l, "host: "); ok {
			if err := json.Unmarshal([]byte(rest), &cr.Host); err != nil {
				return nil, fmt.Errorf("%s: host line: %w", workload, err)
			}
			continue
		}
		if i == len(lines)-1 && strings.HasPrefix(l, "{") {
			if err := json.Unmarshal([]byte(l), &cr.result); err != nil {
				return nil, fmt.Errorf("%s: result line: %w", workload, err)
			}
			continue
		}
		fmt.Println(l)
	}
	if cr.Metrics == nil {
		return nil, fmt.Errorf("%s printed no result: %v", workload, runErr)
	}
	return cr, nil
}

// runAll runs the named workloads one after another, writes
// bench/out/result.json and fails unless every check passed.
func runAll(o options, c *contract, order []string) ([]*childResult, error) {
	var all []*childResult
	attempted, failed := 0, 0
	for _, w := range order {
		cr, err := runChild(o, w)
		if err != nil {
			return nil, err
		}
		all = append(all, cr)
		attempted, failed = attempted+cr.Attempted, failed+cr.Failed
	}
	data, err := json.MarshalIndent(map[string]any{"seed": o.seed, "seconds": o.seconds, "trace": o.trace, "workloads": all}, "", " ")
	if err != nil {
		return nil, err
	}
	path := filepath.Join(o.root, "bench", "out", "result.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return nil, err
	}
	fmt.Printf("failed_frac %d/%d; results in %s\n", failed, attempted, path)
	if failed > 0 {
		return all, fmt.Errorf("%d of %d checks failed", failed, attempted)
	}
	return all, nil
}
