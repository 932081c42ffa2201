// Command benchdiff compares two files of standard `go test -bench` output
// and reports, per benchmark, the median ns/op of each side and the delta.
// It is the repository's dependency-free stand-in for benchstat: CI runs the
// microbenchmark suite and gates merges on benchdiff against the checked-in
// bench/baseline.txt (see PERFORMANCE.md for the workflow).
//
// Usage:
//
//	benchdiff old.txt new.txt                       # report all deltas
//	benchdiff -gate FullCell=10 old.txt new.txt     # also fail >10% regressions
//
// Each -gate NAME=PCT (repeatable) fails the run with exit status 1 when the
// named benchmark's median ns/op regressed by more than PCT percent, or when
// the benchmark is missing from either file — a silently vanished gate
// benchmark must not pass. NAME covers BenchmarkNAME and its sub-benchmarks
// (BenchmarkNAME/...), each gated on its own.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"busprefetch/internal/buildinfo"
)

// gate is one -gate NAME=PCT regression bound.
type gate struct {
	name string
	pct  float64
}

// gateList implements flag.Value for repeated -gate flags.
type gateList []gate

func (g *gateList) String() string {
	parts := make([]string, len(*g))
	for i, x := range *g {
		parts[i] = fmt.Sprintf("%s=%g", x.name, x.pct)
	}
	return strings.Join(parts, ",")
}

func (g *gateList) Set(s string) error {
	name, pctStr, ok := strings.Cut(s, "=")
	if !ok || name == "" {
		return fmt.Errorf("gate %q: want NAME=PCT", s)
	}
	pct, err := strconv.ParseFloat(pctStr, 64)
	if err != nil || pct < 0 {
		return fmt.Errorf("gate %q: bad percentage %q", s, pctStr)
	}
	*g = append(*g, gate{name: name, pct: pct})
	return nil
}

func main() {
	var gates gateList
	flag.Var(&gates, "gate", "fail when benchmark NAME=PCT regresses more than PCT percent (repeatable)")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("benchdiff"))
		return
	}
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-gate NAME=PCT]... OLD NEW")
		os.Exit(2)
	}
	old, err := parseFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	cur, err := parseFile(flag.Arg(1))
	if err != nil {
		fatal(err)
	}
	report(os.Stdout, old, cur)
	if errs := checkGates(gates, old, cur); len(errs) > 0 {
		for _, e := range errs {
			fmt.Fprintln(os.Stderr, "benchdiff:", e)
		}
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(2)
}

func parseFile(path string) (map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	samples, err := parseBench(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("%s: no benchmark results", path)
	}
	return samples, nil
}

// parseBench collects ns/op samples per benchmark from `go test -bench`
// output. The trailing -N GOMAXPROCS suffix is stripped so results compare
// across machines with different core counts.
func parseBench(r io.Reader) (map[string][]float64, error) {
	samples := make(map[string][]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		// Fields: Name iterations value "ns/op" [extra metrics]...
		if fields[3] != "ns/op" {
			continue
		}
		v, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		samples[name] = append(samples[name], v)
	}
	return samples, sc.Err()
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// deltaPct returns the percentage change from old to new (positive = slower).
func deltaPct(old, cur float64) float64 {
	if old == 0 {
		return 0
	}
	return (cur - old) / old * 100
}

func report(w io.Writer, old, cur map[string][]float64) {
	names := make([]string, 0, len(old)+len(cur))
	seen := make(map[string]bool)
	for n := range old {
		names = append(names, n)
		seen[n] = true
	}
	for n := range cur {
		if !seen[n] {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-40s %14s %14s %9s\n", "benchmark", "old ns/op", "new ns/op", "delta")
	for _, n := range names {
		o, hasOld := old[n]
		c, hasCur := cur[n]
		switch {
		case !hasOld:
			fmt.Fprintf(w, "%-40s %14s %14.0f %9s\n", n, "-", median(c), "new")
		case !hasCur:
			fmt.Fprintf(w, "%-40s %14.0f %14s %9s\n", n, median(o), "-", "gone")
		default:
			fmt.Fprintf(w, "%-40s %14.0f %14.0f %+8.1f%%\n", n, median(o), median(c), deltaPct(median(o), median(c)))
		}
	}
}

// gateMatches reports whether benchmark n is the one gate name g names or
// one of its sub-benchmarks: gate Cell covers BenchmarkCell and
// BenchmarkCell/mp3d, never BenchmarkFullCell.
func gateMatches(n, g string) bool {
	full := "Benchmark" + g
	return n == full || strings.HasPrefix(n, full+"/")
}

// checkGates verifies every benchmark a gate covers is present on both sides
// and within the gate's regression bound.
func checkGates(gates []gate, old, cur map[string][]float64) []error {
	var errs []error
	for _, g := range gates {
		var names []string
		for n := range cur {
			if gateMatches(n, g.name) {
				names = append(names, n)
			}
		}
		for n := range old {
			if _, ok := cur[n]; !ok && gateMatches(n, g.name) {
				names = append(names, n)
			}
		}
		if len(names) == 0 {
			errs = append(errs, fmt.Errorf("gate %s: benchmark missing from both sides", g.name))
			continue
		}
		sort.Strings(names)
		for _, n := range names {
			o, c := old[n], cur[n]
			if len(o) == 0 || len(c) == 0 {
				errs = append(errs, fmt.Errorf("gate %s: %s missing (old %d samples, new %d)", g.name, n, len(o), len(c)))
				continue
			}
			if d := deltaPct(median(o), median(c)); d > g.pct {
				errs = append(errs, fmt.Errorf("gate %s: %s regressed %.1f%% (limit %.1f%%)", g.name, n, d, g.pct))
			}
		}
	}
	return errs
}
