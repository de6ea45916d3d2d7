// Command table1 regenerates the paper's Table I: the statistics of the
// six benchmark datasets, printed side by side with the published values
// so the calibration of the synthetic substitutes is auditable.
//
// Usage:
//
//	table1                 # full-size datasets
//	table1 -count 200      # statistics from 200 graphs per dataset
package main

import (
	"flag"
	"fmt"
	"os"

	"graphhd"
	"graphhd/internal/experiments"
)

func main() {
	var (
		count    = flag.Int("count", 0, "graphs per dataset (0 = paper size)")
		seed     = flag.Uint64("seed", 1, "random seed")
		extended = flag.Bool("extended", false, "also print diameter/clustering/degeneracy/triangle statistics")
	)
	flag.Parse()

	rows, err := experiments.RunTable1(*seed, *count)
	if err != nil {
		fmt.Fprintln(os.Stderr, "table1:", err)
		os.Exit(1)
	}
	experiments.WriteTable1(os.Stdout, rows)

	if *extended {
		fmt.Printf("\n%-10s %7s %8s %10s %10s %9s %8s %7s %8s\n",
			"Dataset", "Graphs", "Classes", "AvgV", "AvgE", "AvgDiam", "AvgClus", "AvgCore", "AvgTri")
		for _, name := range graphhd.DatasetNames() {
			ds, err := graphhd.GenerateDataset(name, graphhd.DatasetOptions{Seed: *seed, GraphCount: *count})
			if err != nil {
				fmt.Fprintln(os.Stderr, "table1:", err)
				os.Exit(1)
			}
			fmt.Println(graphhd.ComputeExtendedDatasetStats(ds).ExtendedRow())
		}
	}
}
