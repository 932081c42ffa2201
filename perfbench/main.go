// Command perfbench is the repository's end-to-end benchmark. One process
// runs one workload for a fixed time, checks every output, and prints every
// metric by name with its unit; the last line of standard output is a JSON
// object the comparison tooling reads.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload cells --seed 1 --seconds 15 --trace 0
//
// Workloads:
//
//	cells  one closed-loop client calling busprefetch.RunContext
//	sweep  the mkfigures call sequence for Figure 2 plus Tables 4 and 5
//	serve  one closed-loop HTTP client against an in-process server
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics of a traced run, whose spans are written
// to .bench_build/spans/ when the run ends. README.md describes every
// metric and why each workload was chosen.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"busprefetch"
	"busprefetch/internal/buildinfo"
)

// recordedSeed is the seed the checked-in output digests were recorded at.
const recordedSeed = 1

// setupSamples is how many set-ups a run times at each of several points
// spread through it; setup_s is their median. Before each batch the heap
// returns its free memory to the OS, so every batch starts from the same
// state and a set-up pays for faulting in fresh memory, as in a new
// process. Without that, a batch sometimes reused pages the previous unit
// had left behind and ran three times faster, and the median of a run
// depended on how many batches did.
const setupSamples = 64

// maxParallel is the number of worker goroutines, and of client
// connections, every workload uses. A cell already keeps two processors
// busy (its producer and its consumer); a second cell at once on a small
// host makes every time depend on how the host schedules the threads.
const maxParallel = 1

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// bench is one run's shared state: its settings, the failure tally, the
// metrics and exact counts it reports, and the span log of a traced run.
type bench struct {
	workload string
	seed     int64
	budget   time.Duration
	traced   bool
	spans    *spanLog // nil unless traced

	attempted, failed int
	problems          []string

	metrics map[string]metric
	// counts are simulated quantities and cache/store tallies; they must
	// repeat exactly for the same code and seed.
	counts map[string]uint64
	// digests fingerprint outputs for the comparison against the digests
	// recorded at recordedSeed.
	digests map[string]string
	// want is the record for this workload from digests.json; recording
	// marks a --record run, which rewrites it instead of checking it.
	want      workloadRecord
	recording bool
	lines     []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fail records one failed or wrong operation.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	if len(b.problems) < 20 {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

// report adds a metric to the result and a human-readable line.
func (b *bench) report(name string, value float64, unit, note string) {
	b.metrics[name] = metric{Value: value, Unit: unit}
	line := fmt.Sprintf("%-34s %14.6g %-7s", name, value, unit)
	if note != "" {
		line += "  " + note
	}
	b.lines = append(b.lines, line)
}

// note adds a human-readable line that is not part of the JSON result.
func (b *bench) note(format string, args ...any) {
	b.lines = append(b.lines, fmt.Sprintf(format, args...))
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		wl      = fs.String("workload", "", "workload to run: cells, sweep or serve")
		seed    = fs.Int64("seed", recordedSeed, "input seed")
		seconds = fs.Float64("seconds", 15, "how long to measure")
		traceOn = fs.Int("trace", 0, "1 runs the traced, per-layer variant")
		record  = fs.Bool("record", false, "run once at the recorded seed and rewrite perfbench/digests.json")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	workloads := map[string]func(context.Context, *bench) error{
		"cells": runCells,
		"sweep": runSweep,
		"serve": runServe,
	}
	body, ok := workloads[*wl]
	if !ok {
		return fmt.Errorf("unknown workload %q (valid: cells, sweep, serve)", *wl)
	}
	if *traceOn != 0 && *traceOn != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *traceOn)
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %g", *seconds)
	}
	if procs := runtime.GOMAXPROCS(0); maxParallel > procs {
		// More workers or clients than processors only time-slice; the
		// per-operation times would mostly measure that.
		return fmt.Errorf("refusing to run %d workers/clients on GOMAXPROCS=%d", maxParallel, procs)
	}
	if *record {
		*seed = recordedSeed
	}

	b := &bench{
		workload: *wl,
		seed:     *seed,
		budget:   time.Duration(*seconds * float64(time.Second)),
		traced:   *traceOn == 1,
		metrics:  map[string]metric{},
		counts:   map[string]uint64{},
		digests:  map[string]string{},
	}
	if b.traced {
		b.spans = newSpanLog()
	}
	recs, err := loadRecords()
	if err != nil {
		return err
	}
	b.want, b.recording = recs[*wl], *record
	b.note("env nproc=%d gomaxprocs=%d workers=%d clients=%d go=%s rev=%s workload=%s seed=%d seconds=%g trace=%d",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), maxParallel, maxParallel, runtime.Version(),
		buildinfo.Revision(), *wl, *seed, *seconds, *traceOn)

	if err := body(context.Background(), b); err != nil {
		return err
	}
	if *record {
		return recordDigests(b)
	}
	correct := b.checkExact()
	if b.traced {
		msg, err := b.spans.write(b.workload, b.seed)
		if err != nil {
			return err
		}
		b.note("%s", msg)
	}
	if b.attempted < 1 {
		return errors.New("no operation completed")
	}
	if b.failed > 0 {
		correct = false
	}
	b.note("%-34s %14.6g %-7s  %d of %d operations", "failed_frac", float64(b.failed)/float64(b.attempted), "ratio", b.failed, b.attempted)
	for _, p := range b.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", p)
	}
	for _, l := range b.lines {
		fmt.Fprintln(stdout, l)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, b.attempted, b.failed, b.metrics})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(out))
	if !correct {
		return errors.New("outputs or exact counts are wrong (see FAIL lines above)")
	}
	return nil
}

// latency summarizes per-operation times in milliseconds: the median and
// the highest percentile with at least ten samples beyond it.
type latency struct {
	p50, tail, tailPct float64
	n                  int
}

func summarize(ms []float64) (latency, error) {
	n := len(ms)
	if n < 11 {
		return latency{}, fmt.Errorf("only %d samples; a tail needs at least 11", n)
	}
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	return latency{p50: median(s), tail: s[n-11], tailPct: 100 * float64(n-10) / float64(n), n: n}, nil
}

// median of a non-empty slice (sorted in place).
func median(v []float64) float64 {
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// reportLatency adds op_ms_p50 and op_ms_tail, naming the operation.
func (b *bench) reportLatency(op string, ms []float64) error {
	l, err := summarize(ms)
	if err != nil {
		return err
	}
	b.report("op_ms_p50", l.p50, "ms", fmt.Sprintf("median %s latency, n=%d", op, l.n))
	b.report("op_ms_tail", l.tail, "ms", fmt.Sprintf("p%.2f %s latency, 10 samples beyond, n=%d", l.tailPct, op, l.n))
	return nil
}

// unit is one timed unit of a run (a cells pass, a sweep, a serve round):
// the operations it completed, the simulated demand references their
// results cover, its wall time and the bytes it allocated.
type unit struct {
	ops   int
	refs  uint64
	wall  time.Duration
	alloc uint64
}

// reportHost adds the metrics every workload shares: set-up time, work
// rates, allocation per operation and peak resident memory. The rates and
// the allocation are medians over the run's units: a stretch of the run in
// which the host ran faster or slower than usual does not carry the rates,
// and a unit with extra work (the serve workload's first round, which also
// runs a sweep) does not carry the allocation.
func (b *bench) reportHost(setups []float64, units []unit, op, unitName string) {
	ops := 0
	var opRates, refRates, allocs []float64
	for _, u := range units {
		ops += u.ops
		opRates = append(opRates, float64(u.ops)/u.wall.Seconds())
		refRates = append(refRates, float64(u.refs)/u.wall.Seconds())
		allocs = append(allocs, float64(u.alloc)/1e6/float64(u.ops))
	}
	b.report("setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups", len(setups)))
	b.report("ops_per_s", median(opRates), "1/s", fmt.Sprintf("median of %d %ss, %d %ss in all", len(units), unitName, ops, op))
	b.report("demand_refs_per_s", median(refRates), "refs/s", "simulated demand references per host second, median "+unitName)
	b.report("alloc_mb_per_op", median(allocs), "MB", fmt.Sprintf("TotalAlloc per %s, median %s", op, unitName))
	b.report("max_rss_mb", maxRSSMB(), "MB", "peak resident set")
}

// warmUpCells is how many cells a run calls, untimed, before it times
// anything.
const warmUpCells = 8

// warmUp calls busprefetch.RunContext on the first warmUpCells specs,
// untimed, so the heap has grown and the code has been paged in before the
// first timed operation.
func warmUp(ctx context.Context, specs []busprefetch.RunSpec) error {
	for _, s := range specs[:min(warmUpCells, len(specs))] {
		if _, err := busprefetch.RunContext(ctx, s); err != nil {
			return fmt.Errorf("warm-up %s: %w", specLabel(s), err)
		}
	}
	return nil
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// maxRSSMB is the process's peak resident set size (Linux reports KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// layerNames lists every per-layer metric with its unit, in BENCHMARK.json
// order. A traced run reports all of them; a layer the workload does not
// exercise reports 0.
var layerNames = []struct{ name, unit string }{
	{"workload.plan_ms", "ms"},
	{"workload.gen_ns_per_event", "ns"},
	{"prefetch.annotate_ns_per_event", "ns"},
	{"prefetch.sharing_profile_ms", "ms"},
	{"sim.ns_per_event", "ns"},
	{"sim.ns_per_event.shared", "ns"},
	{"sim.ns_per_event.private", "ns"},
	{"sim.alloc_bytes_per_event", "B"},
	{"runner.trace_cache_hits", "count"},
	{"runner.trace_cache_misses", "count"},
	{"runner.pool_efficiency", "ratio"},
	{"experiments.prewarm_s", "s"},
	{"experiments.render_ms", "ms"},
	{"server.job_ms_hit_p50", "ms"},
	{"server.job_ms_miss_p50", "ms"},
	{"server.job_ms_disk_hit_p50", "ms"},
	{"server.restart_ms", "ms"},
	{"runner.store_hits", "count"},
	{"runner.store_misses", "count"},
	{"runner.store_disk_hits", "count"},
	{"runner.checkpoint_puts", "count"},
	{"server.rejected", "count"},
	{"sim.cycles", "count"},
	{"cache.cpu_misses", "count"},
	{"coherence.inval_misses", "count"},
	{"coherence.updates_sent", "count"},
	{"bus.ops", "count"},
	{"bus.busy_cycles", "count"},
	{"bus.demand_grants", "count"},
	{"bus.prefetch_grants", "count"},
	{"prefetch.prefetches", "count"},
	{"trace.fused_ms_p50", "ms"},
	{"trace.stages_ms_p50", "ms"},
	{"trace.overlap_ms_p50", "ms"},
	{"trace.overhead_s", "s"},
}

// finishLayers fills in a zero for every per-layer metric the workload did
// not report, so a traced result always carries the full list.
func (b *bench) finishLayers() {
	for _, l := range layerNames {
		if _, ok := b.metrics[l.name]; !ok {
			b.report(l.name, 0, l.unit, "not exercised by this workload")
		}
	}
}

// reportCounts adds the exact counts under their per-layer names.
func (b *bench) reportCounts(names ...string) {
	for _, n := range names {
		b.report(n, float64(b.counts[n]), "count", "exact")
	}
}

// reportOverhead adds the tracing overhead: the median traced unit's wall
// time minus the median untraced unit's.
func (b *bench) reportOverhead(unit string, untraced, traced []float64) {
	if len(untraced) == 0 || len(traced) == 0 {
		return
	}
	u, t := median(untraced), median(traced)
	b.report("trace.overhead_s", t-u, "s", fmt.Sprintf("traced %.3fs - untraced %.3fs per %s", t, u, unit))
}

// keyList renders sorted map keys for messages.
func keyList(m map[string]uint64) string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return strings.Join(ks, ",")
}
