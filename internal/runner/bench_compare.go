package runner

import (
	"fmt"
	"sort"
)

// Regression is one suite cell whose wall-clock cost grew beyond the allowed
// tolerance relative to a reference report.
type Regression struct {
	Cell      string
	RefMillis float64
	NewMillis float64
	// Ratio is NewMillis / RefMillis (1.10 = 10% slower than the reference).
	Ratio float64
}

func (r Regression) String() string {
	return fmt.Sprintf("%s: %.0fms -> %.0fms (%.2fx)", r.Cell, r.RefMillis, r.NewMillis, r.Ratio)
}

// CompareCells matches cells by label between a reference report and a new
// one and returns every cell whose wall clock regressed by more than
// tolerance (0.10 = 10%), worst ratio first. Cells below minMillis in the
// reference are skipped — scheduler noise dominates sub-threshold timings —
// and cells present in only one report are ignored (the suite's shape
// changed; that is a golden-file concern, not a perf one).
//
// It refuses, with an error, two reports recorded with different Workers or
// GOMAXPROCS: a cell's wall clock includes the time it waited for a CPU
// while other workers ran, so across pool shapes the per-cell ratios
// measure time-slicing, not the code.
func CompareCells(ref, cur *BenchReport, tolerance, minMillis float64) ([]Regression, error) {
	if ref.Workers != cur.Workers || ref.GOMAXPROCS != cur.GOMAXPROCS {
		return nil, fmt.Errorf("runner: bench reports not comparable: reference ran %d workers on GOMAXPROCS %d, current %d on %d",
			ref.Workers, ref.GOMAXPROCS, cur.Workers, cur.GOMAXPROCS)
	}
	refBy := make(map[string]float64, len(ref.Cells))
	for _, c := range ref.Cells {
		refBy[c.Cell] = c.Millis
	}
	var regs []Regression
	for _, c := range cur.Cells {
		base, ok := refBy[c.Cell]
		if !ok || base < minMillis || base <= 0 {
			continue
		}
		ratio := c.Millis / base
		if ratio > 1+tolerance {
			regs = append(regs, Regression{Cell: c.Cell, RefMillis: base, NewMillis: c.Millis, Ratio: ratio})
		}
	}
	sort.Slice(regs, func(i, j int) bool {
		if regs[i].Ratio != regs[j].Ratio {
			return regs[i].Ratio > regs[j].Ratio
		}
		return regs[i].Cell < regs[j].Cell
	})
	return regs, nil
}
