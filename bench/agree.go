package main

import (
	"fmt"
	"slices"
)

// agree runs o.agree sets of every workload back to back, reversing the
// workload order from one set to the next, and compares the sets: for
// every end-to-end metric of every workload it prints the median, the
// quartiles and their distance as a share of the median, next to the bound.
// It fails when two sets' values of a metric differ by more than its bound.
func agree(o options, c *contract) error {
	order := c.workloadNames()
	values := map[string]map[string][]float64{} // workload → metric → one value per set
	for set := 0; set < o.agree; set++ {
		fmt.Printf("--- set %d of %d: %v\n", set+1, o.agree, order)
		all, err := runAll(o, c, order)
		if err != nil {
			return err
		}
		for _, cr := range all {
			if values[cr.Workload] == nil {
				values[cr.Workload] = map[string][]float64{}
			}
			for name, v := range cr.Metrics {
				values[cr.Workload][name] = append(values[cr.Workload][name], v.Value)
			}
		}
		slices.Reverse(order)
	}
	if o.trace == 1 {
		return nil // per-layer metrics have no bounds to hold the sets to
	}
	fmt.Printf("%-18s %-14s %12s %12s %12s %8s %8s %8s\n", "workload", "metric", "median", "q1", "q3", "spread", "range", "bound")
	disagree := 0
	for _, w := range c.workloadNames() {
		for _, d := range c.EndToEnd {
			v := values[w][d.Name]
			q1, q3 := quartiles(v)
			med := median(v)
			rng := (slices.Max(v) - slices.Min(v)) / slices.Min(v)
			mark := ""
			if rng > d.Bound {
				mark = "  DISAGREE"
				disagree++
			}
			fmt.Printf("%-18s %-14s %12.5g %12.5g %12.5g %7.1f%% %7.1f%% %7.1f%%%s\n",
				w, d.Name, med, q1, q3, 100*(q3-q1)/med, 100*rng, 100*d.Bound, mark)
		}
	}
	if disagree > 0 {
		return fmt.Errorf("%d metrics differ between sets by more than their bound", disagree)
	}
	return nil
}
