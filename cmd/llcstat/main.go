// Command llcstat inspects a binary trace file: per-core access counts,
// read/write mix, distinct-block footprint, and — with -filter — the LLC
// reference stream that survives the private L1/L2 hierarchy, including
// the residency-level sharing characterization under LRU.
//
//	llcstat canneal.trc
//	llcstat -filter -llc 4 canneal.trc
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"sharellc/internal/cache"
	"sharellc/internal/sharing"
	"sharellc/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("llcstat: ")
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("llcstat", flag.ContinueOnError)
	var (
		filter = fs.Bool("filter", false, "run the trace through the private hierarchy and characterize the LLC stream")
		llcMB  = fs.Float64("llc", 4, "LLC size in MB for -filter")
		ways   = fs.Int("ways", 16, "LLC associativity for -filter")
		text   = fs.Bool("text", false, "input is in the text trace format")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: llcstat [flags] <trace-file>")
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	var r trace.Reader
	if *text {
		r = trace.NewTextReader(f)
	} else {
		br, err := trace.NewFileReader(f)
		if err != nil {
			return err
		}
		r = br
	}

	var (
		total, writes uint64
		perCore       [128]uint64
		blocks        = make(map[uint64]struct{}, 1<<16)
		accs          []trace.Access
	)
	for {
		a, ok := r.Next()
		if !ok {
			break
		}
		total++
		if a.Write {
			writes++
		}
		perCore[a.Core]++
		blocks[a.Addr.BlockID()] = struct{}{}
		if *filter {
			accs = append(accs, a)
		}
	}
	if err := r.Err(); err != nil {
		return err
	}

	fmt.Printf("accesses:        %d\n", total)
	if total == 0 {
		return nil
	}
	fmt.Printf("writes:          %d (%.1f%%)\n", writes, 100*float64(writes)/float64(total))
	fmt.Printf("distinct blocks: %d (%.1f MB footprint)\n",
		len(blocks), float64(len(blocks))*trace.BlockSize/float64(cache.MB))
	fmt.Printf("cores:")
	for c, n := range perCore {
		if n > 0 {
			fmt.Printf(" %d:%d", c, n)
		}
	}
	fmt.Println()

	if !*filter {
		return nil
	}
	stream, h, err := cache.FilterStream(trace.NewSliceReader(accs), cache.DefaultConfig())
	if err != nil {
		return err
	}
	cache.AssignBlockIDs(stream)
	refs, l1, l2, llcRefs := h.Stats()
	fmt.Printf("\nprivate hierarchy (%s):\n", cache.DefaultConfig())
	fmt.Printf("  L1 hits: %d (%.1f%%), L2 hits: %d (%.1f%%), to LLC: %d (%.1f%%)\n",
		l1, 100*float64(l1)/float64(refs), l2, 100*float64(l2)/float64(refs),
		llcRefs, 100*float64(llcRefs)/float64(refs))

	lru := sharing.LLCConfig{Size: int(*llcMB * float64(cache.MB)), Ways: *ways,
		NewPolicy: func() cache.Policy { return &cache.LRU{} }}
	results, err := sharing.ReplayMulti(stream, []sharing.LLCConfig{lru}, sharing.Options{})
	if err != nil {
		return err
	}
	res := results[0]
	fmt.Printf("\nLLC (%gMB, %d-way, LRU):\n", *llcMB, *ways)
	fmt.Printf("  accesses %d, hits %d, misses %d (miss rate %.1f%%)\n",
		res.Accesses, res.Hits, res.Misses, 100*res.MissRate())
	fmt.Printf("  shared hits: %.1f%% of hit volume; shared residencies: %.1f%%; shared blocks: %.1f%%\n",
		100*res.SharedHitFraction(),
		100*float64(res.SharedResidencies)/float64(res.Residencies),
		100*float64(res.DistinctSharedBlocks)/float64(res.DistinctBlocks))
	return nil
}
