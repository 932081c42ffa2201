package cache

import (
	"math/bits"
	"testing"

	"busprefetch/internal/memory"
)

// The cache microbenchmarks exercise the three operations the simulation
// kernel performs per reference — the hitting probe, the allocate-on-miss,
// and the remote snoop — over a fixed, deterministic address schedule. Each
// benchmark's body is a plain function returning its observable outcome, and
// TestBenchBodiesDeterministic pins those outcomes in normal `go test` mode,
// so the benchmarked path can never drift from the simulated semantics (see
// PERFORMANCE.md).

// benchAddrs returns a deterministic address schedule: n addresses walking
// lines cyclically over a working set of wsLines lines.
func benchAddrs(geom memory.Geometry, n, wsLines int) []memory.Addr {
	addrs := make([]memory.Addr, n)
	for i := range addrs {
		line := i % wsLines
		addrs[i] = memory.Addr(line*geom.LineSize) + memory.Addr((i*memory.WordSize)%geom.LineSize)
	}
	return addrs
}

// probeHits probes every address once after prefilling the cache; the
// working set fits, so every probe hits. Returns the hit count.
func probeHits(c *Cache, addrs []memory.Addr) int {
	hits := 0
	for _, a := range addrs {
		if _, hit := c.Probe(a); hit {
			hits++
		}
	}
	return hits
}

// allocateChurn allocates every address in a working set twice the cache
// size, counting evictions of real (tagged) lines.
func allocateChurn(c *Cache, addrs []memory.Addr) int {
	evictions := 0
	for _, a := range addrs {
		l, ev := c.Allocate(a)
		l.State = Exclusive
		if ev.HadTag {
			evictions++
		}
	}
	return evictions
}

// snoopSweep applies an invalidating snoop to every address and counts the
// copies that were valid when snooped.
func snoopSweep(c *Cache, addrs []memory.Addr) int {
	killed := 0
	for _, a := range addrs {
		if c.SnoopInvalidate(a, 0) != Invalid {
			killed++
		}
	}
	return killed
}

// snoopGroupSweep is the simulator's snoop pattern on a cache group: for
// every address, cache 0 (the requester) finds the other holders through
// Holders and applies an invalidating snoop to each. It returns the copies
// that were valid when snooped.
func snoopGroupSweep(group []*Cache, addrs []memory.Addr) int {
	killed := 0
	for _, a := range addrs {
		for h := group[0].Holders(a) &^ 1; h != 0; h &= h - 1 {
			if group[bits.TrailingZeros64(h)].SnoopInvalidate(a, 0) != Invalid {
				killed++
			}
		}
	}
	return killed
}

// prefillGroup fills line l of the working set into cache p of the group
// when (l+p)%4 == 0, so each line has a quarter of the group as holders.
// It returns how many of those copies sit outside cache 0.
func prefillGroup(group []*Cache, geom memory.Geometry, wsLines int) int {
	remote := 0
	for l := 0; l < wsLines; l++ {
		for p, c := range group {
			if (l+p)%4 != 0 {
				continue
			}
			line, _ := c.Allocate(memory.Addr(l * geom.LineSize))
			line.State = Shared
			if p != 0 {
				remote++
			}
		}
	}
	return remote
}

func prefill(c *Cache, geom memory.Geometry, wsLines int) {
	for i := 0; i < wsLines; i++ {
		l, _ := c.Allocate(memory.Addr(i * geom.LineSize))
		l.State = Shared
	}
}

func BenchmarkProbeHit(b *testing.B) {
	geom := memory.DefaultGeometry()
	c := New(geom)
	ws := geom.Lines() / 2
	prefill(c, geom, ws)
	addrs := benchAddrs(geom, 4096, ws)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := probeHits(c, addrs); got != len(addrs) {
			b.Fatalf("probe hits %d, want %d", got, len(addrs))
		}
	}
}

func BenchmarkAllocateChurn(b *testing.B) {
	geom := memory.DefaultGeometry()
	c := New(geom)
	// Working set twice the cache: every allocation past the first lap
	// displaces a resident line.
	addrs := benchAddrs(geom, 4096, geom.Lines()*2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		allocateChurn(c, addrs)
	}
}

func BenchmarkSnoop(b *testing.B) {
	geom := memory.DefaultGeometry()
	c := New(geom)
	ws := geom.Lines() / 2
	addrs := benchAddrs(geom, 4096, ws)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		prefill(c, geom, ws)
		b.StartTimer()
		snoopSweep(c, addrs)
	}
}

// BenchmarkSnoopGroup is BenchmarkSnoop as the simulator performs it: a
// 16-cache group in the paper's geometry, where each snoop visits only the
// caches Holders names instead of probing all fifteen remote caches.
func BenchmarkSnoopGroup(b *testing.B) {
	geom := memory.DefaultGeometry()
	group := NewGroup(geom, 16)
	ws := geom.Lines() / 2
	addrs := benchAddrs(geom, 4096, ws)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		prefillGroup(group, geom, ws)
		b.StartTimer()
		snoopGroupSweep(group, addrs)
	}
}

// TestBenchBodiesDeterministic runs each benchmark body once, as plain test
// code, and asserts the outcome the benchmark loop checks (or would observe)
// is exactly what the cache semantics demand. If a benchmark body diverges
// from the simulated semantics — probing the wrong working set, allocating
// with a different geometry — this test fails before any timing is trusted.
func TestBenchBodiesDeterministic(t *testing.T) {
	geom := memory.DefaultGeometry()

	c := New(geom)
	ws := geom.Lines() / 2
	prefill(c, geom, ws)
	addrs := benchAddrs(geom, 4096, ws)
	if got := probeHits(c, addrs); got != len(addrs) {
		t.Errorf("probeHits = %d, want %d (working set fits, every probe must hit)", got, len(addrs))
	}

	churn := New(geom)
	churnAddrs := benchAddrs(geom, 4096, geom.Lines()*2)
	first := allocateChurn(churn, churnAddrs)
	// 4096 allocations over 2048 distinct lines into a 1024-line cache:
	// the first 1024 allocations fill cold sets, every later one evicts.
	if want := len(churnAddrs) - geom.Lines(); first != want {
		t.Errorf("allocateChurn (cold) = %d evictions, want %d", first, want)
	}
	if again := allocateChurn(churn, churnAddrs); again != len(churnAddrs) {
		t.Errorf("allocateChurn (warm) = %d evictions, want %d (every set full)", again, len(churnAddrs))
	}

	sc := New(geom)
	prefill(sc, geom, ws)
	if got := snoopSweep(sc, addrs); got != ws {
		t.Errorf("snoopSweep = %d valid copies killed, want %d (each line snooped valid once)", got, ws)
	}

	group := NewGroup(geom, 16)
	remote := prefillGroup(group, geom, ws)
	if got := snoopGroupSweep(group, addrs); got != remote {
		t.Errorf("snoopGroupSweep = %d valid copies killed, want %d (each remote copy snooped valid once)", got, remote)
	}
}
