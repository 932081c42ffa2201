package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"runtime/debug"
	"time"

	"busprefetch"
)

// cellScale sets the trace length of every cells-workload call: about 35 ms
// of host time for a typical cell on one core.
const cellScale = 0.2

// cellSpecs is the cells workload's list: the paper's whole grid (five
// workloads, five disciplines, transfer latencies 4 to 32) plus a few cells
// on the other machine seams. The seed sets every RunSpec.Seed and the call
// order; the mix itself is fixed, so every seed weighs the layers alike.
func cellSpecs(seed int64) []busprefetch.RunSpec {
	var specs []busprefetch.RunSpec
	for _, w := range busprefetch.Workloads() {
		for _, st := range busprefetch.Strategies() {
			for _, t := range []int{4, 8, 16, 24, 32} {
				specs = append(specs, busprefetch.RunSpec{Workload: w.Name, Strategy: st, Transfer: t})
			}
		}
	}
	specs = append(specs,
		busprefetch.RunSpec{Workload: "mp3d", Strategy: "PREF", Transfer: 16, Protocol: "dragon"},
		busprefetch.RunSpec{Workload: "water", Strategy: "NP", Transfer: 24, Protocol: "dragon"},
		busprefetch.RunSpec{Workload: "pverify", Strategy: "EXCL", Transfer: 8, Protocol: "msi"},
		busprefetch.RunSpec{Workload: "water", Strategy: "PREF", Transfer: 32, Interconnect: "multibus"},
		busprefetch.RunSpec{Workload: "mp3d", Strategy: "PREF", Transfer: 32, Interconnect: "directory"},
		busprefetch.RunSpec{Workload: "topopt", Strategy: "LPD", Transfer: 16, Discipline: "fcfs"},
		busprefetch.RunSpec{Workload: "mp3d", Strategy: "PWS", Transfer: 32, Discipline: "fcfs"},
		busprefetch.RunSpec{Workload: "locus", Strategy: "PREF", Transfer: 8, Prefetcher: "stride"},
	)
	for i := range specs {
		specs[i].Scale = cellScale
		specs[i].Seed = seed
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	return specs
}

// runCells calls busprefetch.RunContext on every spec of the list, cold,
// pass after pass until the budget is spent; a pass is never cut short, so
// every run weighs the mix alike. A traced run alternates untraced passes
// with traced ones, which call each layer separately.
func runCells(ctx context.Context, b *bench) error {
	// Set-up is what a client does before its first call: build the list
	// and validate every spec. It is sampled again between passes, so the
	// median spans the run rather than one moment of it.
	var specs []busprefetch.RunSpec
	var keys []string
	var setups []float64
	setup := func() error {
		debug.FreeOSMemory() // see setupSamples
		for i := 0; i < setupSamples; i++ {
			t0 := time.Now()
			specs = cellSpecs(b.seed)
			keys = make([]string, len(specs))
			for j, s := range specs {
				k, err := s.SpecString()
				if err != nil {
					return err
				}
				keys[j] = k
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
		return nil
	}
	if err := setup(); err != nil {
		return err
	}

	var (
		lat                []float64
		units              []unit
		untracedS, tracedS []float64
		totals             layerTotals
		passes             [][]*busprefetch.Metrics
	)
	if err := warmUp(ctx, specs); err != nil {
		return err
	}
	start := time.Now()
	for len(passes) == 0 || (b.traced && len(tracedS) == 0) || time.Since(start) < b.budget {
		pass := make([]*busprefetch.Metrics, len(specs))
		u := unit{ops: len(specs)}
		p0, a0 := time.Now(), totalAlloc()
		for i, s := range specs {
			t := time.Now()
			m, err := busprefetch.RunContext(ctx, s)
			lat = append(lat, ms(time.Since(t)))
			b.attempted++
			if err != nil {
				b.fail("%s: %v", keys[i], err)
				continue
			}
			pass[i] = m
			u.refs += m.DemandRefs
		}
		u.wall, u.alloc = time.Since(p0), totalAlloc()-a0
		units = append(units, u)
		untracedS = append(untracedS, u.wall.Seconds())
		passes = append(passes, pass)
		if err := setup(); err != nil {
			return err
		}
		if b.traced {
			fused, err := b.tracePass(ctx, specs, keys, pass, &totals)
			if err != nil {
				return err
			}
			tracedS = append(tracedS, fused)
		}
	}

	// Outputs: each cell's Metrics against the recorded digest (at the
	// recorded seed) and against every other pass.
	for _, pass := range passes {
		var done []*busprefetch.Metrics
		for i, m := range pass {
			if m == nil {
				continue
			}
			data, err := json.Marshal(m)
			if err != nil {
				return err
			}
			b.checkDigest(keys[i], digest(data))
			done = append(done, m)
		}
		if len(done) == len(specs) {
			b.setCounts(metricCounts(done))
		}
	}
	b.note("cells: %d passes of %d specs at scale %g", len(passes), len(specs), cellScale)

	if b.traced {
		b.reportLayers(&totals)
		b.reportCounts("sim.cycles", "cache.cpu_misses", "coherence.inval_misses", "coherence.updates_sent",
			"bus.ops", "bus.busy_cycles", "bus.demand_grants", "bus.prefetch_grants", "prefetch.prefetches")
		b.reportOverhead("pass of fused cells", untracedS, tracedS)
		b.finishLayers()
		return nil
	}
	if err := b.reportLatency("cell call", lat); err != nil {
		return err
	}
	b.reportHost(setups, units, "cell", "pass")
	return nil
}

// tracePass times the layers of every spec, checks each fused result
// against the untraced call's Metrics, and returns the pass's summed fused
// time in seconds.
func (b *bench) tracePass(ctx context.Context, specs []busprefetch.RunSpec, keys []string,
	untraced []*busprefetch.Metrics, totals *layerTotals) (float64, error) {
	first := len(totals.fusedMs)
	results, fused, err := b.traceSpecs(ctx, specs, 1, totals)
	if err != nil {
		return 0, err
	}
	if first == 0 {
		for i, s := range specs {
			b.note("cell %-34s fused %8.3f ms  stages %8.3f ms", specLabel(s), totals.fusedMs[i], totals.stagesMs[i])
		}
	}
	for i, res := range results {
		if m := untraced[i]; m != nil && (m.Cycles != res.Cycles || m.DemandRefs != res.Counters.DemandRefs() ||
			m.BusOps != res.Bus.TotalOps()) {
			b.fail("%s: the layer-by-layer run disagrees with RunContext", keys[i])
		}
	}
	b.setCounts(modelCounts(results))
	return fused.Seconds(), nil
}
