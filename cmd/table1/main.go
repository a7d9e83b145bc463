// Command table1 regenerates the paper's Table 1: the five clustered-
// index-scan queries over the Tscalar/Tvector pair, reporting execution
// time, CPU load and I/O rate, plus the §6.2 storage-size comparison.
//
//	go run ./cmd/table1 -rows 500000
package main

import (
	"flag"
	"fmt"
	"os"

	"sqlarray"
)

func main() {
	rows := flag.Int("rows", 200_000, "rows per table (paper: 357e6)")
	mbps := flag.Float64("iomodel", 1150, "modeled sequential scan rate in MB/s (paper testbed: 1150)")
	sizes := flag.Bool("sizes", false, "also print the storage comparison (§6.2)")
	flag.Parse()

	db := sqlarray.NewDatabase()
	fmt.Fprintf(os.Stderr, "populating Tscalar and Tvector with %d rows each...\n", *rows)
	if err := sqlarray.SetupTable1(db, *rows); err != nil {
		fmt.Fprintln(os.Stderr, "setup:", err)
		os.Exit(1)
	}
	cfg := sqlarray.DefaultTable1Config()
	cfg.Rows = *rows
	cfg.Model.SeqReadBytesPerSec = *mbps * 1e6

	ms, err := sqlarray.RunTable1(db, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "run:", err)
		os.Exit(1)
	}

	fmt.Println("Table 1: query performance (reconstructed columns; paper figures in perfbench/README.md)")
	fmt.Printf("%-5s %-12s %-10s %-10s %-12s %-10s\n",
		"Query", "Exec time", "CPU [%]", "I/O [MB/s]", "CPU meas.", "UDF calls")
	for _, m := range ms {
		fmt.Printf("%-5d %-12s %-10.0f %-10.0f %-12s %-10d\n",
			m.Index, m.Time.Round(0).String(), m.CPULoad, m.IOMBps, m.CPU.String(), m.UDFCalls)
	}

	bd, err := sqlarray.DeriveUDFCost(ms, *rows)
	if err != nil {
		fmt.Fprintln(os.Stderr, "derive:", err)
		os.Exit(1)
	}
	fmt.Println()
	fmt.Println("§7.1 derived costs (paper: ~2 us/call, >=38 % empty-call share, +22 % extraction)")
	fmt.Printf("  per-call cost (Q4-Q3):        %v\n", bd.PerCallCost)
	fmt.Printf("  per-empty-call cost (Q5-Q3):  %v\n", bd.PerEmptyCallCost)
	fmt.Printf("  empty-call share of Q5 CPU:   %.0f %%\n", 100*bd.EmptyCallShare)
	fmt.Printf("  item-extraction increment:    %+.0f %%\n", 100*bd.ExtractionIncrement)

	if *sizes {
		cmp, err := sqlarray.CompareTable1Storage(db)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sizes:", err)
			os.Exit(1)
		}
		fmt.Println()
		fmt.Println("§6.2 storage comparison (paper: vector table 43 % bigger)")
		fmt.Printf("  Tscalar: %d rows, %d leaf pages, %d row bytes\n",
			cmp.ScalarStats.Rows, cmp.ScalarStats.LeafPages, cmp.ScalarStats.RowBytes)
		fmt.Printf("  Tvector: %d rows, %d leaf pages, %d row bytes\n",
			cmp.VectorStats.Rows, cmp.VectorStats.LeafPages, cmp.VectorStats.RowBytes)
		fmt.Printf("  vector/scalar bytes: %.2fx   pages: %.2fx\n", cmp.ByteRatio, cmp.PageRatio)
	}
}
