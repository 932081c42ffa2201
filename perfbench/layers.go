package main

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"time"

	"busprefetch"
	"busprefetch/internal/coherence"
	"busprefetch/internal/interconnect"
	"busprefetch/internal/memory"
	"busprefetch/internal/prefetch"
	"busprefetch/internal/sim"
	"busprefetch/internal/trace"
	"busprefetch/internal/workload"
)

// cellCalls is a RunSpec resolved into the arguments busprefetch.RunContext
// passes to each layer, so the traced run can call the layers one at a
// time. The traced run checks that the result equals RunContext's.
type cellCalls struct {
	w      *workload.Workload
	params workload.Params
	pf     prefetch.Prefetcher
	opt    prefetch.Options
	cfg    sim.Config
}

func resolve(s busprefetch.RunSpec) (cellCalls, error) {
	def := func(v *int, d int) {
		if *v == 0 {
			*v = d
		}
	}
	def(&s.Transfer, 8)
	def(&s.MemLatency, 100)
	def(&s.CacheKB, 32)
	def(&s.LineBytes, 32)
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Strategy == "" {
		s.Strategy = "NP"
	}
	if s.Prefetcher == "" {
		s.Prefetcher = "oracle"
	}
	if s.Interconnect == "" {
		s.Interconnect = "bus"
	}
	if s.Discipline == "" {
		s.Discipline = "priority"
	}
	w, err := workload.ByName(s.Workload)
	if err != nil {
		return cellCalls{}, err
	}
	strat, err := prefetch.ParseStrategy(s.Strategy)
	if err != nil {
		return cellCalls{}, err
	}
	kind, err := prefetch.ParsePrefetcher(s.Prefetcher)
	if err != nil {
		return cellCalls{}, err
	}
	geom := memory.Geometry{CacheSize: s.CacheKB * 1024, LineSize: s.LineBytes, Assoc: 1}
	c := cellCalls{
		w:      w,
		params: workload.Params{Procs: s.Procs, Scale: s.Scale, Seed: s.Seed, Restructured: s.Restructured, Geometry: geom},
		pf:     prefetch.ByKind(kind),
		opt: prefetch.Options{Strategy: strat, Geometry: geom, Distance: s.Distance,
			ExcludeWriteShared: s.BufferPrefetch && strat != prefetch.NP},
		cfg: sim.DefaultConfig(),
	}
	c.cfg.Geometry = geom
	c.cfg.MemLatency = s.MemLatency
	c.cfg.TransferCycles = s.Transfer
	c.cfg.VictimCacheLines = s.VictimCacheLines
	if kind.Online() {
		c.cfg.Online = prefetch.OnlineConfig{Kind: kind, Strategy: strat}
	}
	if s.BufferPrefetch {
		c.cfg.PrefetchTarget = sim.PrefetchToBuffer
	}
	if s.Protocol != "" {
		if c.cfg.Protocol, err = coherence.Parse(s.Protocol); err != nil {
			return cellCalls{}, err
		}
	}
	if c.cfg.Interconnect, err = interconnect.ParseConfig(s.Interconnect, s.Buses, s.Discipline); err != nil {
		return cellCalls{}, err
	}
	return c, nil
}

// replaySource is an in-memory trace.Source over recorded event streams. It
// hands the simulator chunks of the size the streaming pipeline uses, so
// timing the simulator over it leaves out generation and annotation only.
type replaySource struct {
	name    string
	streams []trace.Stream
}

const replayChunk = 4096

func record(src trace.Source) (*replaySource, error) {
	r := &replaySource{name: src.Name(), streams: make([]trace.Stream, src.Procs())}
	for p := range r.streams {
		s, err := trace.DrainProc(src, p)
		if err != nil {
			return nil, err
		}
		r.streams[p] = s
	}
	return r, nil
}

func (r *replaySource) Name() string { return r.name }

func (r *replaySource) Procs() int { return len(r.streams) }

func (r *replaySource) Events(proc int) trace.Iterator { return &replayIter{rest: r.streams[proc]} }

type replayIter struct{ rest trace.Stream }

func (it *replayIter) Next() ([]trace.Event, error) {
	n := min(len(it.rest), replayChunk)
	if n == 0 {
		return nil, nil
	}
	c := it.rest[:n:n]
	it.rest = it.rest[n:]
	return c, nil
}

func (it *replayIter) Close() { it.rest = nil }

// stages is one traced cell: the fused pipeline's time and result, and the
// time of each layer call made separately.
type stages struct {
	fused                                  time.Duration
	plan, gen, annotated, sharing, simTime time.Duration
	bareEvents, events                     int
	simAlloc                               uint64
	res                                    *sim.Result
	// replayAgrees is whether the simulator's result over the in-memory
	// replay, and the second fused run's, equal the first fused run's.
	replayAgrees bool
}

// sum is the separately timed stages of the fused pipeline: plan, the
// sharing pre-pass, the annotated drain (which generates as it goes) and
// the simulator.
func (s stages) sum() time.Duration { return s.plan + s.sharing + s.annotated + s.simTime }

// traceCell runs one spec fused, as RunContext does, then once more a layer
// at a time, with a span around every call.
func traceCell(ctx context.Context, l *spanLog, id int64, spec busprefetch.RunSpec, label string) (stages, error) {
	var st stages
	c, err := resolve(spec)
	if err != nil {
		return st, err
	}
	attrs := map[string]string{"cell": label}
	root := l.begin(id, 0, "cell", attrs)
	defer root.end()

	// The fused run goes once before the separate calls and once after, and
	// its time is the mean of the two, so neither side of the comparison
	// is the only one to run on cold processor caches.
	fused := func() (*sim.Result, time.Duration, error) {
		var res *sim.Result
		d, err := l.timed(id, root.id, "cell.fused", attrs, func() error {
			src, _, err := c.w.Source(c.params)
			if err != nil {
				return err
			}
			ann, err := c.pf.AnnotateSource(src, c.opt, nil)
			if err != nil {
				return err
			}
			res, err = sim.RunSourceContext(ctx, c.cfg, ann)
			return err
		})
		return res, d, err
	}
	var before time.Duration
	if st.res, before, err = fused(); err != nil {
		return st, err
	}

	var src trace.Source
	if st.plan, err = l.timed(id, root.id, "workload.plan", attrs, func() error {
		src, _, err = c.w.Source(c.params)
		return err
	}); err != nil {
		return st, err
	}
	if st.gen, err = l.timed(id, root.id, "workload.generate", attrs, func() error {
		st.bareEvents, _, err = trace.CountEvents(src)
		return err
	}); err != nil {
		return st, err
	}
	var prof *trace.SharingProfile
	if !c.pf.Kind().Online() && (c.opt.Strategy == prefetch.PWS || c.opt.ExcludeWriteShared) {
		if st.sharing, err = l.timed(id, root.id, "prefetch.sharing_profile", attrs, func() error {
			prof, err = trace.AnalyzeSharingSource(src, c.opt.Geometry)
			return err
		}); err != nil {
			return st, err
		}
	}
	var ann trace.Source
	if st.annotated, err = l.timed(id, root.id, "prefetch.annotate", attrs, func() error {
		if ann, err = c.pf.AnnotateSource(src, c.opt, prof); err != nil {
			return err
		}
		st.events, _, err = trace.CountEvents(ann)
		return err
	}); err != nil {
		return st, err
	}
	replay, err := record(ann)
	if err != nil {
		return st, err
	}
	var res *sim.Result
	a0 := totalAlloc()
	if st.simTime, err = l.timed(id, root.id, "sim.run", attrs, func() error {
		res, err = sim.RunSourceContext(ctx, c.cfg, replay)
		return err
	}); err != nil {
		return st, err
	}
	st.simAlloc = totalAlloc() - a0
	again, after, err := fused()
	if err != nil {
		return st, err
	}
	st.fused = (before + after) / 2
	st.replayAgrees = reflect.DeepEqual(res, st.res) && reflect.DeepEqual(again, st.res)
	return st, nil
}

// cellClass sorts a cell into the two kinds the kernel split reports:
// write-shared, bus-bound cells and low-sharing, hit-dominated ones.
func cellClass(s busprefetch.RunSpec) string {
	plain := s.Protocol == "" && s.Interconnect == "" && s.Discipline == "" && s.Prefetcher == ""
	switch {
	case plain && s.Transfer == 32 && (s.Workload == "mp3d" || s.Workload == "pverify"):
		return "shared"
	case plain && s.Strategy == "NP" && (s.Workload == "water" || s.Workload == "topopt"):
		return "private"
	}
	return ""
}

// layerTotals accumulates traced cells into the per-layer metrics.
type layerTotals struct {
	planMs, sharingMs            []float64
	fusedMs, stagesMs, overlapMs []float64
	genNs, genEvents             float64
	annNs, annEvents             float64
	simNs, simEvents, simAlloc   float64
	classNs, classEvents         map[string]float64
}

func (t *layerTotals) add(spec busprefetch.RunSpec, st stages) {
	if t.classNs == nil {
		t.classNs, t.classEvents = map[string]float64{}, map[string]float64{}
	}
	t.planMs = append(t.planMs, ms(st.plan))
	t.fusedMs = append(t.fusedMs, ms(st.fused))
	t.stagesMs = append(t.stagesMs, ms(st.sum()))
	t.overlapMs = append(t.overlapMs, ms(st.sum()-st.fused))
	t.genNs += float64(st.gen)
	t.genEvents += float64(st.bareEvents)
	if st.sharing > 0 {
		t.sharingMs = append(t.sharingMs, ms(st.sharing))
	}
	// NP cells and online prefetchers pass the source through unannotated.
	if spec.Strategy != "NP" && (spec.Prefetcher == "" || spec.Prefetcher == "oracle") {
		t.annNs += float64(st.annotated - st.gen)
		t.annEvents += float64(st.bareEvents)
	}
	t.simNs += float64(st.simTime)
	t.simEvents += float64(st.events)
	t.simAlloc += float64(st.simAlloc)
	if cl := cellClass(spec); cl != "" {
		t.classNs[cl] += float64(st.simTime)
		t.classEvents[cl] += float64(st.events)
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func medianOrZero(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return median(v)
}

// reportLayers adds the per-layer metrics of the traced cells.
func (b *bench) reportLayers(t *layerTotals) {
	n := fmt.Sprintf("%d traced cells", len(t.fusedMs))
	b.report("workload.plan_ms", medianOrZero(t.planMs), "ms", "median Workload.Source, "+n)
	b.report("workload.gen_ns_per_event", ratio(t.genNs, t.genEvents), "ns", "bare source drained alone")
	b.report("prefetch.annotate_ns_per_event", ratio(t.annNs, t.annEvents), "ns", "annotated drain minus bare drain, oracle non-NP cells")
	b.report("prefetch.sharing_profile_ms", medianOrZero(t.sharingMs), "ms",
		fmt.Sprintf("median trace.AnalyzeSharingSource, %d cells", len(t.sharingMs)))
	b.report("sim.ns_per_event", ratio(t.simNs, t.simEvents), "ns", "sim.RunSourceContext over the in-memory replay")
	b.report("sim.ns_per_event.shared", ratio(t.classNs["shared"], t.classEvents["shared"]), "ns", "mp3d and pverify at T=32")
	b.report("sim.ns_per_event.private", ratio(t.classNs["private"], t.classEvents["private"]), "ns", "water and topopt under NP")
	b.report("sim.alloc_bytes_per_event", ratio(t.simAlloc, t.simEvents), "B", "TotalAlloc during the simulator call")
	b.report("trace.fused_ms_p50", medianOrZero(t.fusedMs), "ms", "fused cell, as RunContext runs it")
	b.report("trace.stages_ms_p50", medianOrZero(t.stagesMs), "ms", "sum of the separately timed stages")
	b.report("trace.overlap_ms_p50", medianOrZero(t.overlapMs), "ms", "stages minus fused: producer/consumer overlap")
}

// modelCounts sums the simulated counts of a set of results under their
// per-layer names. They are simulated quantities, not host time.
func modelCounts(rs []*sim.Result) map[string]uint64 {
	c := map[string]uint64{}
	for _, r := range rs {
		c["sim.cycles"] += r.Cycles
		c["sim.demand_refs"] += r.Counters.DemandRefs()
		c["cache.cpu_misses"] += r.Counters.TotalCPUMisses()
		c["coherence.inval_misses"] += r.Counters.InvalidationMisses()
		c["coherence.updates_sent"] += r.Counters.UpdatesSent
		c["bus.ops"] += r.Bus.TotalOps()
		c["bus.busy_cycles"] += r.Bus.BusyCycles
		c["bus.demand_grants"] += r.Bus.DemandGrants
		c["bus.prefetch_grants"] += r.Bus.PrefetchGrants
		c["prefetch.prefetches"] += r.Counters.PrefetchesIssued + r.Counters.OnlineIssued
	}
	return c
}

// metricCounts is the subset of modelCounts a busprefetch.Metrics carries.
// Miss counts come back from their rates exactly: rate = count/refs in
// float64, and both are far below 2^53.
func metricCounts(ms []*busprefetch.Metrics) map[string]uint64 {
	c := map[string]uint64{}
	for _, m := range ms {
		c["sim.cycles"] += m.Cycles
		c["sim.demand_refs"] += m.DemandRefs
		c["cache.cpu_misses"] += uint64(math.Round(m.CPUMissRate * float64(m.DemandRefs)))
		c["coherence.inval_misses"] += uint64(math.Round(m.InvalidationMissRate * float64(m.DemandRefs)))
		c["bus.ops"] += m.BusOps
		c["prefetch.prefetches"] += m.PrefetchesIssued + m.OnlinePrefetches
	}
	return c
}

// setCounts records a map of exact counts.
func (b *bench) setCounts(c map[string]uint64) {
	for k, v := range c {
		b.setCount(k, v)
	}
}
