package prefetch

// The reference annotator: the materialized oracle insertion the repository
// ran before the streaming annotator existed, kept verbatim as an
// independent test oracle. It sorts whole-stream insertion lists where
// AnnotateSource slides a bounded window, so the two share no insertion
// logic — only the miss filter and the sharing profile.
// TestAnnotateSourceMatchesReference requires them to agree event for
// event.

import (
	"fmt"
	"os"
	"sort"
	"testing"

	"busprefetch/internal/filter"
	"busprefetch/internal/memory"
	"busprefetch/internal/trace"
	"busprefetch/internal/workload"
)

// referenceAnnotate returns a copy of t with prefetch instructions inserted
// according to the options. With Strategy NP the trace is cloned unchanged
// (so callers can uniformly mutate the result).
func referenceAnnotate(t *trace.Trace, opt Options) (*trace.Trace, error) {
	if err := opt.Geometry.Validate(); err != nil {
		return nil, err
	}
	if opt.Strategy < NP || opt.Strategy >= NumStrategies {
		return nil, fmt.Errorf("prefetch: bad strategy %d", int(opt.Strategy))
	}
	if opt.Strategy == NP {
		return t.Clone(), nil
	}
	out := &trace.Trace{Name: t.Name, Streams: make([]trace.Stream, t.Procs())}

	if opt.ExcludeWriteShared && opt.Strategy == PWS {
		return nil, fmt.Errorf("prefetch: ExcludeWriteShared contradicts PWS")
	}

	// PWS needs the global write-shared line set, which only the whole
	// trace reveals — the stand-in for the compiler's knowledge of which
	// data structures are write-shared. ExcludeWriteShared needs the same
	// set to suppress those lines instead.
	var isWS func(memory.Addr) bool
	if opt.Strategy == PWS || opt.ExcludeWriteShared {
		prof, err := trace.AnalyzeSharingSource(trace.FromTrace(t), opt.Geometry)
		if err != nil {
			return nil, err
		}
		isWS = prof.WriteShared
	}

	for p, s := range t.Streams {
		out.Streams[p] = annotateStream(s, opt, isWS)
	}
	return out, nil
}

// insertion is one prefetch to place immediately before event index at.
type insertion struct {
	at  int
	ev  trace.Event
	seq int
}

func annotateStream(s trace.Stream, opt Options, isWS func(memory.Addr) bool) trace.Stream {
	miss := filter.MarkMisses(s, opt.Geometry)
	var wsMiss []bool
	if isWS != nil && opt.Strategy == PWS {
		wsMiss = filter.MarkWriteSharedMisses(s, opt.Geometry, isWS)
	}

	// start[i] is the estimated CPU cycle at which event i begins, assuming
	// every access hits: Gap instruction cycles precede it, and each prior
	// event costs Gap+1.
	start := make([]uint64, len(s)+1)
	var clock uint64
	for i, e := range s {
		start[i] = clock + uint64(e.Gap)
		clock += uint64(e.Gap) + 1
	}
	start[len(s)] = clock

	dist := opt.distance()
	var ins []insertion
	for i, e := range s {
		wantPref := miss[i] || (wsMiss != nil && wsMiss[i])
		if !wantPref || !e.Kind.IsDemand() {
			continue
		}
		if opt.ExcludeWriteShared && isWS != nil && isWS(e.Addr) {
			continue
		}
		kind := trace.Prefetch
		if opt.Strategy == EXCL && e.Kind == trace.Write && miss[i] {
			kind = trace.PrefetchExcl
		}
		at := placeBefore(start, i, dist)
		ins = append(ins, insertion{at: at, ev: trace.Event{Kind: kind, Addr: e.Addr}, seq: len(ins)})
	}
	if len(ins) == 0 {
		return append(trace.Stream(nil), s...)
	}
	// Keep insertions ordered by position, then by the order of their
	// target accesses, so earlier-needed data is requested first.
	sort.Slice(ins, func(a, b int) bool {
		if ins[a].at != ins[b].at {
			return ins[a].at < ins[b].at
		}
		return ins[a].seq < ins[b].seq
	})

	outLen := len(s) + len(ins)
	out := make(trace.Stream, 0, outLen)
	k := 0
	for i, e := range s {
		for k < len(ins) && ins[k].at == i {
			out = append(out, ins[k].ev)
			k++
		}
		out = append(out, e)
	}
	for k < len(ins) {
		out = append(out, ins[k].ev)
		k++
	}
	return out
}

// placeBefore returns the largest event index j <= i such that the estimated
// cycles between the start of event j and the start of event i are at least
// dist — the latest insertion point that still hides dist cycles. It returns
// 0 when the stream's beginning is closer than dist.
func placeBefore(start []uint64, i int, dist uint64) int {
	target := start[i]
	if target <= dist {
		return 0
	}
	want := target - dist
	// Binary search for the last j with start[j] <= want.
	lo, hi := 0, i
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if start[mid] <= want {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// TestAnnotateSourceMatchesReference requires the streaming annotator to
// reproduce the reference annotator event for event: every workload ×
// every strategy × two geometries (the paper's cache and a set-associative
// one with longer lines), plus ExcludeWriteShared. Tier-1 runs it at a
// small scale; BUSPREFETCH_GOLDEN_FULL=1 runs it at scale 1, the scale the
// goldens are recorded at. The cells run one at a time because the
// reference materializes whole traces.
func TestAnnotateSourceMatchesReference(t *testing.T) {
	scale := 0.05
	if os.Getenv("BUSPREFETCH_GOLDEN_FULL") != "" {
		scale = 1
	}
	geoms := []memory.Geometry{
		memory.DefaultGeometry(),
		{CacheSize: 64 * 1024, LineSize: 64, Assoc: 4},
	}
	var opts []Options
	for _, st := range Strategies() {
		opts = append(opts, Options{Strategy: st})
	}
	opts = append(opts, Options{Strategy: PREF, ExcludeWriteShared: true}, Options{Strategy: EXCL, ExcludeWriteShared: true})
	for _, w := range workload.All() {
		for _, g := range geoms {
			src, _, err := w.Source(workload.Params{Scale: scale, Seed: 1, Geometry: g})
			if err != nil {
				t.Fatal(err)
			}
			base, err := trace.Materialize(src)
			if err != nil {
				t.Fatal(err)
			}
			for _, opt := range opts {
				opt.Geometry = g
				name := fmt.Sprintf("%s/%dB-%dway/%s", w.Name, g.LineSize, g.Assoc, opt.Strategy)
				if opt.ExcludeWriteShared {
					name += "-excludeWS"
				}
				t.Run(name, func(t *testing.T) {
					want, err := referenceAnnotate(base, opt)
					if err != nil {
						t.Fatal(err)
					}
					got, err := AnnotateSource(src, opt, nil)
					if err != nil {
						t.Fatal(err)
					}
					if got.Name() != want.Name || got.Procs() != want.Procs() {
						t.Fatalf("annotated %s with %d procs, reference %s with %d",
							got.Name(), got.Procs(), want.Name, want.Procs())
					}
					for p, ws := range want.Streams {
						// Drained one processor at a time: equal to comparing
						// trace.Materialize(got) with want, without holding a
						// second whole trace.
						gs, err := trace.DrainProc(got, p)
						if err != nil {
							t.Fatal(err)
						}
						if i := firstDiff(gs, ws); i >= 0 {
							t.Fatalf("proc %d diverges from the reference at event %d of %d (reference has %d): got %v, want %v",
								p, i, len(gs), len(ws), eventAt(gs, i), eventAt(ws, i))
						}
					}
				})
			}
		}
	}
}

// firstDiff returns the index of the first event where a and b differ, or
// -1 when they are equal.
func firstDiff(a, b trace.Stream) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	if len(b) > len(a) {
		return len(a)
	}
	return -1
}

func eventAt(s trace.Stream, i int) any {
	if i < len(s) {
		return s[i]
	}
	return "end of stream"
}
