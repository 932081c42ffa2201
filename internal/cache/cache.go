package cache

import (
	"fmt"
	"math/bits"

	"busprefetch/internal/memory"
	"busprefetch/internal/names"
)

// State is a per-line coherence state. Invalid, Shared, Exclusive and
// Modified are the Illinois (MESI) states the paper's protocol uses;
// SharedMod additionally serves the write-update (Dragon) protocol, which
// allows dirty lines to be shared.
type State uint8

const (
	// Invalid: the line holds no usable data. A line can be Invalid with a
	// valid tag, which is how the simulator recognizes invalidation misses
	// ("the tags match, but the state has been marked invalid").
	Invalid State = iota
	// Shared: clean, possibly present in other caches. (Dragon's
	// shared-clean Sc state is this same value.)
	Shared
	// Exclusive is the private-clean state: clean and guaranteed to be in no
	// other cache, so it can be written without a bus operation.
	Exclusive
	// Modified: dirty and exclusively owned; must be written back on
	// replacement and supplied by this cache on remote access.
	Modified
	// SharedMod is the write-update (Dragon) shared-dirty state: present in
	// other caches, modified relative to memory, and this cache is the
	// update-owner responsible for supplying data and the eventual
	// writeback. Unreachable under the write-invalidate protocols.
	SharedMod
	// NumStates is the number of coherence states. Dense per-state transition
	// tables (see SnoopTable and internal/sim's protocol tables) are indexed
	// [NumStates]State.
	NumStates
)

var stateNames = []string{"I", "S", "E", "M", "Sm"}

func (s State) String() string { return names.Lookup("State", stateNames, int(s)) }

// Valid reports whether the state holds usable data.
func (s State) Valid() bool { return s != Invalid }

// Dirty reports whether the state is modified relative to memory, so a
// replacement owes a writeback bus operation.
func (s State) Dirty() bool { return s == Modified || s == SharedMod }

// NoInvalidatingWord marks a line that was not invalidated by a remote write
// (or whose invalidation word is unknown).
const NoInvalidatingWord = -1

// Line is one cache line with the metadata the paper's analysis needs. Its
// tag lives in the cache group's shared tag table, not in the line: a line
// returned by Lookup, Probe or Allocate is the one holding the looked-up
// address's tag.
type Line struct {
	// State is the coherence state.
	State State
	// PrefetchedUnused is set when the line was filled by a prefetch and no
	// demand access has touched it yet. It survives invalidation so a
	// subsequent miss can be classified "prefetched, but disappeared from
	// the cache before use".
	PrefetchedUnused bool
	// InvalidatingWord is the word index written by the remote processor
	// whose write invalidated this line, or NoInvalidatingWord. An
	// invalidation miss is a false-sharing miss when the local processor
	// never accessed that word (Eggers & Jeremiassen's definition, paper
	// §4.4).
	InvalidatingWord int8
	// WordsAccessed is a bitmask of words demand-accessed by the local
	// processor during the line's current (or, after invalidation, most
	// recent) residence. Used for false-sharing classification.
	WordsAccessed uint64
	// lru is the per-set recency stamp (larger = more recent).
	lru uint64
}

// Eviction describes what Allocate displaced.
type Eviction struct {
	// LineAddr is the address of the first byte of the displaced line; only
	// meaningful when HadTag.
	LineAddr memory.Addr
	// HadTag is true when a real line (valid or invalidated) was displaced.
	HadTag bool
	// State is the displaced line's coherence state; Modified means the
	// caller owes a writeback bus operation.
	State State
	// PrefetchedUnused is true when the displaced line had been prefetched
	// and never demand-used — a wasted prefetch whose eventual demand miss
	// must be classified "prefetched".
	PrefetchedUnused bool
}

// Cache is a set-associative cache with LRU replacement. Assoc 1 gives the
// paper's direct-mapped cache; Geometry.Assoc 0 gives a fully-associative
// cache (used by the PWS filter).
//
// Every Cache belongs to a group (NewGroup; New builds a group of one). The
// group's caches share one tag table laid out [set][way][cache], so the tags
// every cache holds for one set and way sit in one contiguous row: Holders
// answers "which caches hold this line" from that row instead of probing
// each cache. Each Cache reads and writes only its own column.
type Cache struct {
	geom  memory.Geometry
	ways  int
	lines []Line // sets*ways entries, set-major
	clock uint64

	// tags is the group's shared table: tags[slot*n+id] is this cache's tag
	// plus one for slot set*ways+way, 0 when the slot has never held a line.
	// A tag survives invalidation, which is how invalidation misses are
	// recognized.
	tags []uint64
	n    int
	id   int

	// lineShift and setMask are the geometry's index arithmetic resolved
	// once at construction (LineSize and Sets are validated powers of two).
	// The per-reference lookup path must not re-derive them: Geometry's
	// methods divide by non-constant field values, which the profiler showed
	// dominating Lookup before these were cached.
	lineShift uint
	setMask   uint64
}

// New builds an empty cache with the given geometry, as a group of one. It
// panics on an invalid geometry: geometry is static configuration fixed at
// process start, so an error return would only be rethrown by every caller.
func New(geom memory.Geometry) *Cache { return NewGroup(geom, 1)[0] }

// NewGroup builds n empty caches of one geometry that share a tag table, so
// any of them can report which caches of the group hold a line (Holders).
// Bit i of a holder mask is the i-th returned cache. It panics on an invalid
// geometry or an n outside [1, memory.MaxProcs] (Holders reports holders as
// bits of a uint64), both static configuration.
func NewGroup(geom memory.Geometry, n int) []*Cache {
	if err := geom.Validate(); err != nil {
		panic(err)
	}
	if n < 1 || n > memory.MaxProcs {
		panic(fmt.Sprintf("cache: group of %d caches outside [1, %d]", n, memory.MaxProcs))
	}
	ways, sets := geom.Ways(), geom.Sets()
	slots := sets * ways
	tags := make([]uint64, slots*n)
	lines := make([]Line, slots*n)
	for i := range lines {
		lines[i].InvalidatingWord = NoInvalidatingWord
	}
	group := make([]*Cache, n)
	for id := range group {
		group[id] = &Cache{
			geom:      geom,
			ways:      ways,
			lines:     lines[id*slots : (id+1)*slots : (id+1)*slots],
			tags:      tags,
			n:         n,
			id:        id,
			lineShift: uint(bits.TrailingZeros64(uint64(geom.LineSize))),
			setMask:   uint64(sets - 1),
		}
	}
	return group
}

// Geometry returns the cache's geometry.
func (c *Cache) Geometry() memory.Geometry { return c.geom }

// tagAt returns this cache's tag-table entry for slot i (tag+1, or 0).
func (c *Cache) tagAt(i int) uint64 { return c.tags[i*c.n+c.id] }

// lineAddr is the address of the first byte of the line in slot i, which
// must hold a tag.
func (c *Cache) lineAddr(i int) memory.Addr {
	return memory.Addr((c.tagAt(i) - 1) << c.lineShift)
}

// Lookup returns the line whose tag matches a (valid or invalidated), or nil.
// It does not update recency.
func (c *Cache) Lookup(a memory.Addr) *Line {
	tag := uint64(a) >> c.lineShift
	si := int(tag&c.setMask) * c.ways
	tag++ // the table stores tag+1
	for w := 0; w < c.ways; w++ {
		if c.tagAt(si+w) == tag {
			return &c.lines[si+w]
		}
	}
	return nil
}

// Holders returns the caches of c's group that hold a's tag, valid or
// invalidated, as a bitmask: bit i is the group's i-th cache. It reads one
// contiguous row of the tag table per way. A cache holds a line exactly when
// its Lookup returns non-nil, so a snoop that skips the caches outside the
// mask skips only caches it would leave unchanged.
func (c *Cache) Holders(a memory.Addr) uint64 {
	tag := uint64(a) >> c.lineShift
	base := int(tag&c.setMask) * c.ways * c.n
	tag++
	var m uint64
	for w := 0; w < c.ways; w++ {
		row := c.tags[base+w*c.n : base+(w+1)*c.n]
		for i, t := range row {
			if t == tag {
				m |= 1 << uint(i)
			}
		}
	}
	return m
}

// Probe looks a up and reports whether it hits (tag match with valid state).
// The returned line is non-nil whenever the tag matches, even if invalid, so
// the caller can classify an invalidation miss. Probe refreshes recency on a
// hit.
func (c *Cache) Probe(a memory.Addr) (line *Line, hit bool) {
	line = c.Lookup(a)
	if line != nil && line.State.Valid() {
		c.clock++
		line.lru = c.clock
		return line, true
	}
	return line, false
}

// Allocate installs a line for address a, displacing the set's invalid or
// least-recently-used entry, and returns the fresh line plus a description of
// what was displaced. The caller sets the new line's State. If a's tag is
// already present in the set (for example an invalidated line being
// re-fetched), that entry is reused and Eviction.HadTag is false.
func (c *Cache) Allocate(a memory.Addr) (*Line, Eviction) {
	tag := uint64(a) >> c.lineShift
	si := int(tag&c.setMask) * c.ways
	tag++
	set := c.lines[si : si+c.ways]
	// col[w*c.n] is this cache's tag-table entry for way w of the set.
	col := c.tags[si*c.n+c.id:]
	victim, free := -1, -1
	for w := range set {
		t := col[w*c.n]
		if t == tag {
			victim = w
			break
		}
		if t == 0 && free < 0 {
			free = w
		}
	}
	var ev Eviction
	switch {
	case victim >= 0:
		// a's tag is already here: reuse its entry, displacing nothing.
	case free >= 0:
		// An entry that has never held a line.
		victim = free
	default:
		// Every way holds a tag: prefer an invalidated one, then LRU.
		victim = 0
		for i := 1; i < len(set); i++ {
			vi, vb := !set[i].State.Valid(), !set[victim].State.Valid()
			switch {
			case vi != vb:
				if vi {
					victim = i
				}
			case set[i].lru < set[victim].lru:
				victim = i
			}
		}
		ev = Eviction{
			LineAddr:         memory.Addr((col[victim*c.n] - 1) << c.lineShift),
			HadTag:           true,
			State:            set[victim].State,
			PrefetchedUnused: set[victim].PrefetchedUnused,
		}
	}
	l := &set[victim]
	c.clock++
	*l = Line{lru: c.clock, InvalidatingWord: NoInvalidatingWord}
	col[victim*c.n] = tag
	return l, ev
}

// SnoopTable applies a coherence-protocol transition to the line containing
// a, if this cache holds it valid, and returns the line's prior state
// (Invalid when it did not hold the line). next[s] is the post-snoop state of
// a copy held in state s; internal/coherence supplies the tables per protocol
// and bus operation. When the transition invalidates the line, the tag and
// word-access history are kept and word is recorded as the invalidating word
// for false-sharing classification (pass NoInvalidatingWord when no specific
// word applies).
func (c *Cache) SnoopTable(a memory.Addr, word int, next *[NumStates]State) State {
	l := c.Lookup(a)
	if l == nil || !l.State.Valid() {
		return Invalid
	}
	prior := l.State
	l.State = next[prior]
	if l.State == Invalid {
		if word >= 0 && word < 64 {
			l.InvalidatingWord = int8(word)
		} else {
			l.InvalidatingWord = NoInvalidatingWord
		}
	}
	return prior
}

// invalidateAll and readDowngrade are the write-invalidate snoop
// transitions shared by Illinois and MSI, as SnoopTable tables. Read-only.
var (
	invalidateAll [NumStates]State
	readDowngrade = [NumStates]State{Shared: Shared, Exclusive: Shared, Modified: Shared, SharedMod: SharedMod}
)

// SnoopInvalidate handles a remote write (or read-for-ownership or exclusive
// prefetch) under a write-invalidate protocol: if this cache holds the line
// containing a, it is invalidated in place — the tag is kept, word-access
// history is kept, and the invalidating word is recorded for false-sharing
// classification. It returns the line's prior state (Invalid if the cache
// did not hold it).
func (c *Cache) SnoopInvalidate(a memory.Addr, word int) State {
	return c.SnoopTable(a, word, &invalidateAll)
}

// SnoopRead handles a remote read of the line containing a under a
// write-invalidate protocol. An owned line (Exclusive or Modified) is
// downgraded to Shared; in the Illinois protocol the holding cache also
// supplies the data. It returns the prior state.
func (c *Cache) SnoopRead(a memory.Addr) State {
	return c.SnoopTable(a, NoInvalidatingWord, &readDowngrade)
}

// HoldsValid reports whether the cache currently holds a valid copy of the
// line containing a.
func (c *Cache) HoldsValid(a memory.Addr) bool {
	l := c.Lookup(a)
	return l != nil && l.State.Valid()
}

// StateOf returns the coherence state of the line containing a (Invalid when
// absent). Intended for tests and invariant checks.
func (c *Cache) StateOf(a memory.Addr) State {
	l := c.Lookup(a)
	if l == nil {
		return Invalid
	}
	return l.State
}

// ForEachValid calls fn for every valid line, passing its line address and
// state. Used by invariant checks and utilization reports.
func (c *Cache) ForEachValid(fn func(la memory.Addr, st State)) {
	for i := range c.lines {
		if c.lines[i].State.Valid() {
			fn(c.lineAddr(i), c.lines[i].State)
		}
	}
}

// ValidLines returns the number of valid lines currently held.
func (c *Cache) ValidLines() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].State.Valid() {
			n++
		}
	}
	return n
}
