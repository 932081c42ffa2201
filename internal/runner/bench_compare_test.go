package runner

import (
	"os"
	"strings"
	"testing"
)

func report(cells ...CellTime) *BenchReport {
	return &BenchReport{Schema: BenchSchema, Workers: 2, GOMAXPROCS: 2, Cells: cells}
}

// compare is CompareCells for reports the test built comparable.
func compare(t *testing.T, ref, cur *BenchReport, tolerance, minMillis float64) []Regression {
	t.Helper()
	regs, err := CompareCells(ref, cur, tolerance, minMillis)
	if err != nil {
		t.Fatal(err)
	}
	return regs
}

func TestCompareCells(t *testing.T) {
	ref := report(
		CellTime{"a", 100},
		CellTime{"b", 200},
		CellTime{"tiny", 5},
		CellTime{"gone", 150},
	)
	cur := report(
		CellTime{"a", 109},   // +9%: within tolerance
		CellTime{"b", 260},   // +30%: regression
		CellTime{"tiny", 50}, // 10x, but below the noise floor
		CellTime{"new", 999}, // no reference: ignored
	)
	regs := compare(t, ref, cur, 0.10, 50)
	if len(regs) != 1 {
		t.Fatalf("got %d regressions %v, want exactly the 'b' cell", len(regs), regs)
	}
	r := regs[0]
	if r.Cell != "b" || r.RefMillis != 200 || r.NewMillis != 260 {
		t.Errorf("regression = %+v, want b 200->260", r)
	}
	if r.Ratio < 1.29 || r.Ratio > 1.31 {
		t.Errorf("Ratio = %v, want 1.30", r.Ratio)
	}
	if got := r.String(); !strings.Contains(got, "b: 200ms -> 260ms") {
		t.Errorf("String() = %q", got)
	}
}

func TestCompareCellsOrdersWorstFirst(t *testing.T) {
	ref := report(CellTime{"x", 100}, CellTime{"y", 100}, CellTime{"z", 100})
	cur := report(CellTime{"x", 150}, CellTime{"y", 300}, CellTime{"z", 150})
	regs := compare(t, ref, cur, 0.10, 50)
	if len(regs) != 3 {
		t.Fatalf("got %d regressions, want 3", len(regs))
	}
	if regs[0].Cell != "y" {
		t.Errorf("worst regression = %s, want y (ties broken by label after ratio)", regs[0].Cell)
	}
	if regs[1].Cell != "x" || regs[2].Cell != "z" {
		t.Errorf("tie order = %s, %s, want x, z", regs[1].Cell, regs[2].Cell)
	}
}

func TestCompareCellsNoRegressions(t *testing.T) {
	ref := report(CellTime{"a", 100})
	if regs := compare(t, ref, report(CellTime{"a", 90}), 0.10, 50); regs != nil {
		t.Errorf("faster run reported regressions: %v", regs)
	}
}

// TestCompareCellsRefusesMismatchedReports pins the refusal: reports from
// different pool widths or GOMAXPROCS are an error, not a gate result, even
// when the cells would pass.
func TestCompareCellsRefusesMismatchedReports(t *testing.T) {
	ref := report(CellTime{"a", 100})
	for _, cur := range []*BenchReport{
		{Schema: BenchSchema, Workers: 8, GOMAXPROCS: 2, Cells: ref.Cells},
		{Schema: BenchSchema, Workers: 2, GOMAXPROCS: 1, Cells: ref.Cells},
	} {
		regs, err := CompareCells(ref, cur, 0.10, 50)
		if err == nil {
			t.Errorf("workers %d GOMAXPROCS %d: compared against 2/2 without error", cur.Workers, cur.GOMAXPROCS)
		}
		if regs != nil {
			t.Errorf("refused comparison returned regressions %v", regs)
		}
	}
}

// TestBenchAgainstReference gates the live perf check: record a fresh report
// with the same pool shape as the checked-in BENCH_suite.json,
//
//	GOMAXPROCS=2 go run ./cmd/mkfigures -scale 1 -jobs 2 -bench-out /tmp/bench_new.json -q
//	BUSPREFETCH_BENCH_NEW=/tmp/bench_new.json go test ./internal/runner -run TestBenchAgainstReference
//
// and every cell's wall clock must stay within 10% of the reference. A
// report recorded with other workers or GOMAXPROCS fails the test rather
// than being compared. Wall-clock comparisons are only meaningful on a
// quiet machine, so the test skips unless pointed at a fresh report.
func TestBenchAgainstReference(t *testing.T) {
	newPath := os.Getenv("BUSPREFETCH_BENCH_NEW")
	if newPath == "" {
		t.Skip("set BUSPREFETCH_BENCH_NEW to a freshly recorded bench report to compare against BENCH_suite.json")
	}
	ref, err := ReadBenchReport("../../BENCH_suite.json")
	if err != nil {
		t.Fatalf("reading checked-in reference: %v", err)
	}
	cur, err := ReadBenchReport(newPath)
	if err != nil {
		t.Fatalf("reading fresh report: %v", err)
	}
	// 100ms floor: below that, scheduler jitter on a loaded runner swamps
	// any real signal.
	regs, err := CompareCells(ref, cur, 0.10, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range regs {
		t.Errorf("cell regressed beyond 10%%: %s", r)
	}
}
