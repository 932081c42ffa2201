package main

import (
	"strings"
	"testing"
)

const oldOut = `goos: linux
goarch: amd64
pkg: busprefetch/internal/sim
BenchmarkFullCell 	      16	  70000000 ns/op	   2100000 events/s
BenchmarkFullCell 	      16	  72000000 ns/op	   2050000 events/s
BenchmarkFullCell 	      16	  71000000 ns/op	   2080000 events/s
BenchmarkProbeHit-8 	   26979	     45000 ns/op
BenchmarkProbeHit-8 	   27453	     44000 ns/op
PASS
`

const newOut = `pkg: busprefetch/internal/sim
BenchmarkFullCell 	      82	  14000000 ns/op	  10000000 events/s
BenchmarkFullCell 	      85	  15000000 ns/op	   9800000 events/s
BenchmarkFullCell 	      85	  14500000 ns/op	   9900000 events/s
BenchmarkProbeHit-8 	   44252	     50000 ns/op
BenchmarkProbeHit-8 	   43665	     51000 ns/op
PASS
`

func parseString(t *testing.T, s string) map[string][]float64 {
	t.Helper()
	m, err := parseBench(strings.NewReader(s))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestParseBench(t *testing.T) {
	m := parseString(t, oldOut)
	if got := len(m["BenchmarkFullCell"]); got != 3 {
		t.Errorf("FullCell samples = %d, want 3", got)
	}
	// The -8 GOMAXPROCS suffix must be stripped.
	if got := len(m["BenchmarkProbeHit"]); got != 2 {
		t.Errorf("ProbeHit samples = %d, want 2", got)
	}
	if m["BenchmarkFullCell"][0] != 70000000 {
		t.Errorf("first FullCell sample = %v, want 70000000", m["BenchmarkFullCell"][0])
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

func TestGatePassesOnImprovement(t *testing.T) {
	old, cur := parseString(t, oldOut), parseString(t, newOut)
	errs := checkGates([]gate{{name: "FullCell", pct: 10}}, old, cur)
	if len(errs) != 0 {
		t.Errorf("improvement flagged as regression: %v", errs)
	}
}

func TestGateFailsOnRegression(t *testing.T) {
	old, cur := parseString(t, oldOut), parseString(t, newOut)
	// ProbeHit went 44.5us -> 50.5us: a ~13.5% regression.
	errs := checkGates([]gate{{name: "ProbeHit", pct: 10}}, old, cur)
	if len(errs) != 1 {
		t.Fatalf("regression not flagged: %v", errs)
	}
	// A looser bound admits it.
	if errs := checkGates([]gate{{name: "ProbeHit", pct: 20}}, old, cur); len(errs) != 0 {
		t.Errorf("within-bound change flagged: %v", errs)
	}
}

func TestGateFailsWhenBenchmarkMissing(t *testing.T) {
	old, cur := parseString(t, oldOut), parseString(t, newOut)
	if errs := checkGates([]gate{{name: "NoSuchBench", pct: 10}}, old, cur); len(errs) != 1 {
		t.Errorf("missing gate benchmark not flagged: %v", errs)
	}
}

func TestReportListsAllBenchmarks(t *testing.T) {
	old, cur := parseString(t, oldOut), parseString(t, newOut)
	var sb strings.Builder
	report(&sb, old, cur)
	out := sb.String()
	for _, want := range []string{"BenchmarkFullCell", "BenchmarkProbeHit", "-79.6%", "+13.5%"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestGateCoversExactNameAndSubBenchmarks pins gate matching: gate Cell
// covers BenchmarkCell's sub-benchmarks, each on its own, and not
// BenchmarkFullCell, whose name merely contains "Cell".
func TestGateCoversExactNameAndSubBenchmarks(t *testing.T) {
	old := parseString(t, `BenchmarkFullCell 1 100 ns/op
BenchmarkCell/a-2 1 100 ns/op
BenchmarkCell/b-2 1 100 ns/op
`)
	cur := parseString(t, `BenchmarkFullCell 1 500 ns/op
BenchmarkCell/a-2 1 105 ns/op
BenchmarkCell/b-2 1 130 ns/op
`)
	errs := checkGates([]gate{{name: "Cell", pct: 10}}, old, cur)
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "BenchmarkCell/b") {
		t.Errorf("gate Cell errors = %v, want only BenchmarkCell/b's regression", errs)
	}
	delete(cur, "BenchmarkCell/a")
	if errs := checkGates([]gate{{name: "Cell", pct: 50}}, old, cur); len(errs) != 1 || !strings.Contains(errs[0].Error(), "BenchmarkCell/a missing") {
		t.Errorf("gate Cell with a vanished sub-benchmark: errors = %v, want BenchmarkCell/a missing", errs)
	}
}
