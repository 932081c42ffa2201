package main

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"busprefetch"
	"busprefetch/internal/experiments"
	"busprefetch/internal/runner"
	"busprefetch/internal/sim"
)

// sweepScale matches the cells workload, so a cell costs the same in both.
const sweepScale = 0.2

// sweepWant selects Figure 2 (the 125-cell grid) and the restructured
// Tables 4 and 5.
func sweepWant(name string) bool { return name == "fig2" || name == "table4" || name == "table5" }

// sweepRun is one sweep: its timings, its report rendered twice, and what
// the suite recorded.
type sweepRun struct {
	prewarm, render, total time.Duration
	report, again          string
	bench                  *runner.BenchReport
	results                []*sim.Result
	alloc                  uint64
}

// sweepOnce makes the calls cmd/mkfigures makes, on a fresh suite:
// NewSuite, KeysFor, Prewarm, RenderSections. With a non-nil log each call
// gets a span.
func (b *bench) sweepOnce(ctx context.Context, l *spanLog, id int64) (sweepRun, error) {
	var r sweepRun
	a0 := totalAlloc()
	root := l.begin(id, 0, "sweep", nil)
	var suite *experiments.Suite
	var keys []experiments.Key
	_, _ = l.timed(id, root.id, "experiments.setup", nil, func() error {
		suite = experiments.NewSuite(experiments.Config{Scale: sweepScale, Seed: b.seed, Parallelism: maxParallel})
		keys = suite.KeysFor(sweepWant)
		return nil
	})
	var err error
	r.prewarm, err = l.timed(id, root.id, "experiments.prewarm", nil, func() error {
		return suite.Prewarm(ctx, keys, nil)
	})
	var cellErrs *experiments.CellErrors
	if errors.As(err, &cellErrs) {
		return r, fmt.Errorf("%d sweep cells failed: %v", len(cellErrs.Failures()), err)
	} else if err != nil {
		return r, err
	}
	if r.render, err = l.timed(id, root.id, "experiments.render", nil, func() error {
		r.report, err = suite.RenderSections(ctx, sweepWant)
		return err
	}); err != nil {
		return r, err
	}
	r.total = root.end()
	r.alloc = totalAlloc() - a0
	r.bench = suite.Bench(r.total)

	// Untimed: the second rendering and the results behind the report.
	if r.again, err = suite.RenderSections(ctx, sweepWant); err != nil {
		return r, err
	}
	for _, k := range keys {
		res, err := suite.Result(k)
		if err != nil {
			return r, err
		}
		r.results = append(r.results, res)
	}
	return r, nil
}

// runSweep regenerates the sweep on a fresh suite, again and again until
// the budget is spent. A traced run alternates untraced and traced sweeps,
// then times the layers of a sample of the sweep's cells.
func runSweep(ctx context.Context, b *bench) error {
	var setups []float64
	setup := func() {
		debug.FreeOSMemory() // see setupSamples
		for i := 0; i < setupSamples; i++ {
			t0 := time.Now()
			suite := experiments.NewSuite(experiments.Config{Scale: sweepScale, Seed: b.seed, Parallelism: maxParallel})
			_ = suite.KeysFor(sweepWant)
			setups = append(setups, time.Since(t0).Seconds())
		}
	}
	setup()

	var (
		cellMs                      []float64
		units                       []unit
		untracedS, tracedS          []float64
		prewarmS, renderMs, poolEff []float64
	)
	if err := warmUp(ctx, sweepSample(b.seed)); err != nil {
		return err
	}
	start := time.Now()
	for n := 0; n == 0 || (b.traced && n < 2) || time.Since(start) < b.budget; n++ {
		var l *spanLog
		if b.traced && n%2 == 1 {
			l = b.spans
		}
		b.attempted++
		r, err := b.sweepOnce(ctx, l, int64(n+1))
		if err != nil {
			b.fail("sweep %d: %v", n+1, err)
			continue
		}
		if r.again != r.report {
			b.fail("sweep %d: a second RenderSections differs from the first", n+1)
		}
		b.checkDigest("report", digest([]byte(r.report)))
		setup()
		b.setCount("runner.trace_cache_hits", r.bench.TraceCacheHits)
		b.setCount("runner.trace_cache_misses", r.bench.TraceCacheMisses)
		b.setCounts(modelCounts(r.results))
		if l != nil {
			tracedS = append(tracedS, r.total.Seconds())
			prewarmS = append(prewarmS, r.prewarm.Seconds())
			renderMs = append(renderMs, ms(r.render))
			poolEff = append(poolEff, r.bench.CellMillisTotal/(float64(r.bench.Workers)*ms(r.prewarm)))
			continue
		}
		untracedS = append(untracedS, r.total.Seconds())
		for _, c := range r.bench.Cells {
			cellMs = append(cellMs, c.Millis)
		}
		u := unit{ops: len(r.bench.Cells), wall: r.total, alloc: r.alloc}
		for _, res := range r.results {
			u.refs += res.Counters.DemandRefs()
		}
		units = append(units, u)
	}
	if len(untracedS) > 0 {
		b.note("%-34s %14.6g %-7s  median wall time to a rendered report, %d sweeps of %d cells",
			"sweep_s", median(untracedS), "s", len(untracedS), len(cellMs)/len(untracedS))
	}

	if b.traced {
		b.report("experiments.prewarm_s", median(prewarmS), "s", "median Suite.Prewarm")
		b.report("experiments.render_ms", median(renderMs), "ms", "median Suite.RenderSections")
		b.report("runner.pool_efficiency", median(poolEff), "ratio", "sum of cell times / (workers x Prewarm wall)")
		b.reportCounts("runner.trace_cache_hits", "runner.trace_cache_misses")
		b.reportCounts("sim.cycles", "cache.cpu_misses", "coherence.inval_misses", "coherence.updates_sent",
			"bus.ops", "bus.busy_cycles", "bus.demand_grants", "bus.prefetch_grants", "prefetch.prefetches")
		b.reportOverhead("sweep", untracedS, tracedS)
		var totals layerTotals
		if _, _, err := b.traceSpecs(ctx, sweepSample(b.seed), 100000, &totals); err != nil {
			return err
		}
		b.reportLayers(&totals)
		b.finishLayers()
		return nil
	}
	if err := b.reportLatency("sweep cell", cellMs); err != nil {
		return err
	}
	b.reportHost(setups, units, "sweep cell", "sweep")
	return nil
}

// sweepSample is the sweep's cells at T=8 and T=32, the ends of the bus
// contention range, as RunSpecs, for the layer-by-layer timing of a traced
// sweep.
func sweepSample(seed int64) []busprefetch.RunSpec {
	var specs []busprefetch.RunSpec
	for _, w := range busprefetch.Workloads() {
		for _, st := range busprefetch.Strategies() {
			for _, t := range []int{8, 32} {
				specs = append(specs, busprefetch.RunSpec{Workload: w.Name, Strategy: st, Transfer: t, Scale: sweepScale, Seed: seed})
			}
		}
	}
	for _, wl := range []string{"topopt", "pverify"} {
		for _, st := range []string{"NP", "PREF", "PWS"} {
			specs = append(specs, busprefetch.RunSpec{Workload: wl, Strategy: st, Transfer: 8, Scale: sweepScale, Seed: seed, Restructured: true})
		}
	}
	return specs
}

// traceSpecs times the layers of each spec with traceCell, adding them to
// totals, and returns the fused runs' results and summed time. Span trace
// ids start at firstID.
func (b *bench) traceSpecs(ctx context.Context, specs []busprefetch.RunSpec, firstID int64,
	totals *layerTotals) ([]*sim.Result, time.Duration, error) {
	var results []*sim.Result
	var fused time.Duration
	for i, s := range specs {
		label := specLabel(s)
		st, err := traceCell(ctx, b.spans, firstID+int64(i), s, label)
		if err != nil {
			return nil, 0, err
		}
		if !st.replayAgrees {
			b.fail("%s: the in-memory replay or the repeated fused run gave another sim.Result", label)
		}
		totals.add(s, st)
		results = append(results, st.res)
		fused += st.fused
	}
	return results, fused, nil
}

// specLabel names a spec briefly, for spans and messages.
func specLabel(s busprefetch.RunSpec) string {
	label := fmt.Sprintf("%s/%s/T=%d", s.Workload, s.Strategy, s.Transfer)
	for _, v := range []string{s.Protocol, s.Interconnect, s.Discipline, s.Prefetcher} {
		if v != "" {
			label += "/" + v
		}
	}
	if s.Restructured {
		label += "/restructured"
	}
	return label
}
