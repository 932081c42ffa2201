package busprefetch

import (
	"testing"
)

func TestWorkloadsAndStrategies(t *testing.T) {
	ws := Workloads()
	if len(ws) != 5 {
		t.Fatalf("workloads = %d", len(ws))
	}
	for _, w := range ws {
		if w.Name == "" || w.Description == "" || w.DefaultProcs < 2 {
			t.Errorf("bad workload info %+v", w)
		}
	}
	ss := Strategies()
	want := []string{"NP", "PREF", "EXCL", "LPD", "PWS"}
	for i, s := range want {
		if ss[i] != s {
			t.Fatalf("strategies = %v", ss)
		}
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(RunSpec{}); err == nil {
		t.Error("empty spec accepted")
	}
	if _, err := Run(RunSpec{Workload: "nope", Scale: 0.05}); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := Run(RunSpec{Workload: "water", Strategy: "bogus", Scale: 0.05}); err == nil {
		t.Error("unknown strategy accepted")
	}
}

func TestRunProducesMetrics(t *testing.T) {
	m, err := Run(RunSpec{Workload: "water", Strategy: "PREF", Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Cycles == 0 || m.DemandRefs == 0 {
		t.Fatal("empty metrics")
	}
	if m.CPUMissRate <= 0 || m.CPUMissRate > 1 {
		t.Errorf("CPU miss rate %f", m.CPUMissRate)
	}
	if m.AdjustedCPUMissRate > m.CPUMissRate {
		t.Error("adjusted MR above CPU MR")
	}
	if m.TotalMissRate < m.AdjustedCPUMissRate {
		t.Error("total MR below adjusted CPU MR")
	}
	if m.BusUtilization <= 0 || m.BusUtilization > 1 {
		t.Errorf("bus utilization %f", m.BusUtilization)
	}
	if m.ProcessorUtilization <= 0 || m.ProcessorUtilization > 1 {
		t.Errorf("processor utilization %f", m.ProcessorUtilization)
	}
	if m.PrefetchesIssued == 0 || m.PrefetchOverhead <= 0 {
		t.Error("PREF issued no prefetches")
	}
	sum := m.Components.NonSharingNotPrefetched + m.Components.NonSharingPrefetched +
		m.Components.InvalidationNotPrefetched + m.Components.InvalidationPrefetched +
		m.Components.PrefetchInProgress
	if diff := sum - m.CPUMissRate; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("components sum %f != CPU MR %f", sum, m.CPUMissRate)
	}
}

func TestRunDeterminism(t *testing.T) {
	spec := RunSpec{Workload: "mp3d", Strategy: "PWS", Scale: 0.05, Transfer: 16}
	a, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Error("identical specs produced different metrics")
	}
}

func TestCompare(t *testing.T) {
	results, err := Compare(RunSpec{Workload: "water", Scale: 0.1}, "PREF")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	if results[0].Strategy != "NP" || results[0].RelativeTime != 1 {
		t.Errorf("baseline = %+v", results[0])
	}
	if results[1].Strategy != "PREF" || results[1].RelativeTime <= 0 {
		t.Errorf("PREF = %+v", results[1])
	}
}

func TestCompareDefaultsToAllStrategies(t *testing.T) {
	results, err := Compare(RunSpec{Workload: "water", Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("results = %d, want all five strategies", len(results))
	}
}

func TestSpeedup(t *testing.T) {
	if Speedup(0.72) < 1.38 || Speedup(0.72) > 1.40 {
		t.Errorf("Speedup(0.72) = %f", Speedup(0.72))
	}
	if Speedup(0) != 0 {
		t.Error("Speedup(0) must not divide by zero")
	}
}

func TestCustomGeometryAndDistance(t *testing.T) {
	m, err := Run(RunSpec{Workload: "water", Strategy: "PREF", Scale: 0.05,
		CacheKB: 16, LineBytes: 64, Distance: 250})
	if err != nil {
		t.Fatal(err)
	}
	if m.Cycles == 0 {
		t.Fatal("no cycles")
	}
}

// TestHeadlineResult asserts the paper's abstract at reduced scale: on a
// bus-based multiprocessor with high memory latency, prefetching helps on a
// fast bus and the benefit shrinks or reverses near saturation.
func TestHeadlineResult(t *testing.T) {
	if testing.Short() {
		t.Skip("headline integration in -short mode")
	}
	fast, err := Compare(RunSpec{Workload: "mp3d", Transfer: 4, Scale: 0.2}, "PREF")
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Compare(RunSpec{Workload: "mp3d", Transfer: 32, Scale: 0.2}, "PREF")
	if err != nil {
		t.Fatal(err)
	}
	if fast[1].RelativeTime >= 1 {
		t.Errorf("no speedup on the fast bus: %f", fast[1].RelativeTime)
	}
	if slow[1].RelativeTime < fast[1].RelativeTime {
		t.Errorf("saturated bus gained more (%f) than fast bus (%f)",
			slow[1].RelativeTime, fast[1].RelativeTime)
	}
	if slow[1].RelativeTime < 0.9 {
		t.Errorf("saturated bus still shows a large speedup: %f", slow[1].RelativeTime)
	}
}

func TestProtocolOption(t *testing.T) {
	illinois, err := Run(RunSpec{Workload: "mp3d", Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	msi, err := Run(RunSpec{Workload: "mp3d", Scale: 0.05, Protocol: "msi"})
	if err != nil {
		t.Fatal(err)
	}
	if msi.BusOps <= illinois.BusOps {
		t.Errorf("MSI bus ops %d not above Illinois %d (first-write upgrades missing)",
			msi.BusOps, illinois.BusOps)
	}
	if _, err := Run(RunSpec{Workload: "mp3d", Scale: 0.05, Protocol: "mesi2"}); err == nil {
		t.Error("unknown protocol accepted")
	}
}

func TestVictimCacheOption(t *testing.T) {
	plain, err := Run(RunSpec{Workload: "topopt", Strategy: "PREF", Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	victim, err := Run(RunSpec{Workload: "topopt", Strategy: "PREF", Scale: 0.05, VictimCacheLines: 8})
	if err != nil {
		t.Fatal(err)
	}
	if victim.CPUMissRate >= plain.CPUMissRate {
		t.Errorf("victim cache did not cut topopt's conflict misses: %.4f vs %.4f",
			victim.CPUMissRate, plain.CPUMissRate)
	}
}

func TestBufferPrefetchOption(t *testing.T) {
	buffer, err := Run(RunSpec{Workload: "mp3d", Strategy: "PREF", Scale: 0.05, BufferPrefetch: true})
	if err != nil {
		t.Fatal(err)
	}
	cachePf, err := Run(RunSpec{Workload: "mp3d", Strategy: "PREF", Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	// The non-snooping buffer cannot prefetch shared data, so it must issue
	// far fewer prefetches on this shared-heavy workload.
	if buffer.PrefetchesIssued >= cachePf.PrefetchesIssued {
		t.Errorf("buffer mode issued %d prefetches, cache mode %d — write-shared exclusion missing",
			buffer.PrefetchesIssued, cachePf.PrefetchesIssued)
	}
}

func TestInterconnectOption(t *testing.T) {
	single, err := Run(RunSpec{Workload: "mp3d", Strategy: "PREF", Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	quad, err := Run(RunSpec{Workload: "mp3d", Strategy: "PREF", Scale: 0.05,
		Interconnect: "multibus", Buses: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Four address-interleaved buses must relieve the paper's bottleneck on
	// its most bus-bound workload.
	if quad.Cycles >= single.Cycles {
		t.Errorf("quad bus did not speed up mp3d: %d vs %d cycles", quad.Cycles, single.Cycles)
	}
	if _, err := Run(RunSpec{Workload: "mp3d", Scale: 0.05, Interconnect: "nosuch"}); err == nil {
		t.Error("unknown interconnect accepted")
	}
	if _, err := Run(RunSpec{Workload: "mp3d", Scale: 0.05, Discipline: "nosuch"}); err == nil {
		t.Error("unknown discipline accepted")
	}
	if _, err := Run(RunSpec{Workload: "mp3d", Scale: 0.05, Buses: 2}); err == nil {
		t.Error("multi-link single bus accepted")
	}
}

// cellGolden holds the Metrics of BenchmarkCell's cells as recorded when the
// benchmark was added. The benchmark times the simulator's results, so a
// change that moves them is a model change: it must update this table along
// with the experiments goldens.
var cellGolden = map[string]Metrics{
	"mp3d/PREF/T=8": {Workload: "mp3d", Strategy: "PREF", Transfer: 8,
		Cycles: 114074, DemandRefs: 138673,
		CPUMissRate: 0.07365528978243782, AdjustedCPUMissRate: 0.017761208021749006, TotalMissRate: 0.09292364050680378,
		InvalidationMissRate: 0.01744391482119807, FalseSharingMissRate: 0.0028195827594412757,
		Components: MissComponents{NonSharingNotPrefetched: 0.00028844836413721486, NonSharingPrefetched: 2.884483641372149e-05,
			InvalidationNotPrefetched: 0.017350169102853474, InvalidationPrefetched: 9.374571834459484e-05, PrefetchInProgress: 0.055894081760688816},
		BusUtilization: 1, ProcessorUtilization: 0.4128548135420868,
		PrefetchesIssued: 10460, PrefetchOverhead: 0.0754292472218817, BusOps: 18459},
	"water/NP/T=8": {Workload: "water", Strategy: "NP", Transfer: 8,
		Cycles: 134498, DemandRefs: 197875,
		CPUMissRate: 0.02663802905874921, AdjustedCPUMissRate: 0.02663802905874921, TotalMissRate: 0.02663802905874921,
		InvalidationMissRate: 0.0055135818066961466, FalseSharingMissRate: 0.0009500947567909033,
		Components:     MissComponents{NonSharingNotPrefetched: 0.021124447252053064, InvalidationNotPrefetched: 0.0055135818066961466},
		BusUtilization: 0.3179824235304614, ProcessorUtilization: 0.5880087436244406, BusOps: 5571},
}

// TestCellBodyMatchesGolden is BenchmarkCell's determinism guard: the
// benchmark body must produce exactly the recorded Metrics for every
// benchmarked cell, so the benchmark never times a cell whose results moved.
func TestCellBodyMatchesGolden(t *testing.T) {
	for _, c := range cellSpecs {
		want, ok := cellGolden[c.name]
		if !ok {
			t.Errorf("%s: no golden Metrics", c.name)
			continue
		}
		got, err := cellBody(c.spec)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if *got != want {
			t.Errorf("%s: Metrics\n got %+v\nwant %+v", c.name, *got, want)
		}
	}
}
