package trace

import (
	"sort"

	"busprefetch/internal/memory"
)

// LineUse summarizes how one cache line is used across the whole trace.
type LineUse struct {
	// Readers and Writers are bitmasks of processor indices (processor p is
	// bit p). Traces never exceed memory.MaxProcs processors.
	Readers uint64
	Writers uint64
}

// SharedRead reports whether at least two processors access the line and
// nobody writes it.
func (u LineUse) SharedRead() bool {
	return u.Writers == 0 && popcount(u.Readers) >= 2
}

// WriteShared reports whether the line is written by at least one processor
// and accessed by at least two (the paper's write-shared data, the PWS
// strategy's target class).
func (u LineUse) WriteShared() bool {
	return u.Writers != 0 && popcount(u.Readers|u.Writers) >= 2
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// SharingProfile maps each referenced cache line to its usage summary.
type SharingProfile struct {
	geom  memory.Geometry
	lines map[memory.Addr]LineUse
}

func newSharingProfile(geom memory.Geometry) *SharingProfile {
	return &SharingProfile{geom: geom, lines: make(map[memory.Addr]LineUse)}
}

// note classifies one event of processor bit's stream. Reads make the
// processor a reader of the line; writes make it a reader and a writer.
// Lock words are write-shared by construction: the acquire/release
// perform read-modify-writes. Prefetch and barrier events are ignored:
// sharing is a property of the program, and this analysis also runs
// before prefetch insertion to identify the write-shared lines PWS
// should target.
func (p *SharingProfile) note(bit uint64, e Event) {
	var writer uint64
	switch e.Kind {
	case Read:
	case Write, Lock, Unlock:
		writer = bit
	default:
		return
	}
	la := p.geom.LineAddr(e.Addr)
	u := p.lines[la]
	u.Readers |= bit
	u.Writers |= writer
	p.lines[la] = u
}

// AnalyzeSharingSource drains a fresh iterator per processor of src and
// classifies each touched cache line, without materializing the trace.
// Line classification only ORs per-processor bits, so the result is
// independent of event order and chunking.
func AnalyzeSharingSource(src Source, geom memory.Geometry) (*SharingProfile, error) {
	p := newSharingProfile(geom)
	for proc := 0; proc < src.Procs(); proc++ {
		bit := uint64(1) << uint(proc)
		if err := eachChunk(src, proc, func(chunk []Event) {
			for _, e := range chunk {
				p.note(bit, e)
			}
		}); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// Use returns the usage summary for the line containing a.
func (p *SharingProfile) Use(a memory.Addr) LineUse {
	return p.lines[p.geom.LineAddr(a)]
}

// WriteShared reports whether the line containing a is write-shared.
func (p *SharingProfile) WriteShared(a memory.Addr) bool {
	return p.Use(a).WriteShared()
}

// Counts returns the number of distinct lines that are private, read-shared
// and write-shared, in that order.
func (p *SharingProfile) Counts() (private, readShared, writeShared int) {
	for _, u := range p.lines {
		switch {
		case u.WriteShared():
			writeShared++
		case u.SharedRead():
			readShared++
		default:
			private++
		}
	}
	return
}

// TotalLines returns how many distinct cache lines the trace touches.
func (p *SharingProfile) TotalLines() int { return len(p.lines) }

// WriteSharedLines returns the sorted addresses of all write-shared lines.
func (p *SharingProfile) WriteSharedLines() []memory.Addr {
	var out []memory.Addr
	for la, u := range p.lines {
		if u.WriteShared() {
			out = append(out, la)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Stats summarizes a trace for reports and for the paper's Table 1.
type Stats struct {
	Procs       int
	Events      int
	DemandRefs  int
	Reads       int
	Writes      int
	Prefetches  int
	Locks       int
	Barriers    int
	TouchedData int // bytes of distinct cache lines referenced
	SharedData  int // bytes of distinct cache lines referenced by >=2 procs
	WriteShared int // bytes of distinct write-shared cache lines
}

// SummarizeSource computes whole-trace statistics from a streaming Source,
// using geom for line accounting. It drains each processor once, fusing
// the event counting and the sharing analysis.
func SummarizeSource(src Source, geom memory.Geometry) (Stats, error) {
	st := Stats{Procs: src.Procs()}
	prof := newSharingProfile(geom)
	for proc := 0; proc < src.Procs(); proc++ {
		bit := uint64(1) << uint(proc)
		if err := eachChunk(src, proc, func(chunk []Event) {
			st.Events += len(chunk)
			for _, e := range chunk {
				switch e.Kind {
				case Read:
					st.Reads++
				case Write:
					st.Writes++
				case Prefetch, PrefetchExcl:
					st.Prefetches++
				case Lock:
					st.Locks++
				case Barrier:
					st.Barriers++
				}
				prof.note(bit, e)
			}
		}); err != nil {
			return Stats{}, err
		}
	}
	st.DemandRefs = st.Reads + st.Writes
	st.Barriers /= max(1, st.Procs) // count barrier episodes, not arrivals
	st.TouchedData = prof.TotalLines() * geom.LineSize
	for _, u := range prof.lines {
		if popcount(u.Readers|u.Writers) >= 2 {
			st.SharedData += geom.LineSize
		}
		if u.WriteShared() {
			st.WriteShared += geom.LineSize
		}
	}
	return st, nil
}
