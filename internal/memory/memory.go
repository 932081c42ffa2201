package memory

import "fmt"

// Addr is a byte address in the simulated shared address space.
type Addr uint64

// WordSize is the size of a machine word in bytes. The traced machine is a
// 32-bit multiprocessor, so a word is four bytes; false-sharing detection
// operates at word granularity.
const WordSize = 4

// MaxProcs is the most processors a simulated machine has. A cache group's
// holder masks and the bus's per-class queue masks are one uint64 each, so
// the simulator, the bus, the cache group, the trace codec and the workload
// generators all bound the processor count here.
const MaxProcs = 64

// Geometry describes a cache's shape. The paper's experiments all use a
// direct-mapped 32 KB cache with 32-byte lines; associativity is kept so the
// PWS temporal-locality filter (16-line fully associative) can reuse the same
// description.
type Geometry struct {
	// CacheSize is the total capacity in bytes.
	CacheSize int
	// LineSize is the cache-line (block) size in bytes. Must be a power of
	// two and a multiple of WordSize.
	LineSize int
	// Assoc is the set associativity; 1 means direct mapped. Assoc == 0 is
	// treated as fully associative (one set).
	Assoc int
}

// DefaultGeometry is the paper's simulated data cache: 32 KB, direct mapped,
// 32-byte lines.
func DefaultGeometry() Geometry {
	return Geometry{CacheSize: 32 * 1024, LineSize: 32, Assoc: 1}
}

// Validate reports an error if the geometry is internally inconsistent.
func (g Geometry) Validate() error {
	switch {
	case g.LineSize <= 0 || g.LineSize&(g.LineSize-1) != 0:
		return fmt.Errorf("memory: line size %d is not a positive power of two", g.LineSize)
	case g.LineSize%WordSize != 0:
		return fmt.Errorf("memory: line size %d is not a multiple of the %d-byte word", g.LineSize, WordSize)
	case g.CacheSize <= 0 || g.CacheSize%g.LineSize != 0:
		return fmt.Errorf("memory: cache size %d is not a positive multiple of line size %d", g.CacheSize, g.LineSize)
	case g.Assoc < 0:
		return fmt.Errorf("memory: negative associativity %d", g.Assoc)
	}
	lines := g.CacheSize / g.LineSize
	assoc := g.Assoc
	if assoc == 0 {
		assoc = lines
	}
	if lines%assoc != 0 {
		return fmt.Errorf("memory: %d lines not divisible by associativity %d", lines, assoc)
	}
	sets := lines / assoc
	if sets&(sets-1) != 0 {
		return fmt.Errorf("memory: set count %d is not a power of two", sets)
	}
	return nil
}

// Lines returns the number of cache lines the geometry holds.
func (g Geometry) Lines() int { return g.CacheSize / g.LineSize }

// Ways returns the effective associativity (Lines() when fully associative).
func (g Geometry) Ways() int {
	if g.Assoc == 0 {
		return g.Lines()
	}
	return g.Assoc
}

// Sets returns the number of cache sets.
func (g Geometry) Sets() int { return g.Lines() / g.Ways() }

// WordsPerLine returns how many words a line holds.
func (g Geometry) WordsPerLine() int { return g.LineSize / WordSize }

// LineAddr returns the address of the first byte of the line containing a.
func (g Geometry) LineAddr(a Addr) Addr { return a &^ Addr(g.LineSize-1) }

// LineNumber returns the global line number of the line containing a.
func (g Geometry) LineNumber(a Addr) uint64 { return uint64(a) / uint64(g.LineSize) }

// SetIndex returns the cache set that address a maps to.
func (g Geometry) SetIndex(a Addr) int {
	return int(g.LineNumber(a) & uint64(g.Sets()-1))
}

// WordIndex returns the index of the word within its line (0-based).
func (g Geometry) WordIndex(a Addr) int {
	return int(a&Addr(g.LineSize-1)) / WordSize
}

// WordMask returns a bitmask with the bit for a's word within its line set.
// Lines are at most 64 words (256 bytes) for the mask to stay in a uint64;
// Validate callers in this repository never exceed that.
func (g Geometry) WordMask(a Addr) uint64 { return 1 << uint(g.WordIndex(a)) }

// String implements fmt.Stringer.
func (g Geometry) String() string {
	switch {
	case g.Assoc == 1:
		return fmt.Sprintf("%dKB direct-mapped, %dB lines", g.CacheSize/1024, g.LineSize)
	case g.Assoc == 0:
		return fmt.Sprintf("%dB fully-associative, %dB lines", g.CacheSize, g.LineSize)
	default:
		return fmt.Sprintf("%dKB %d-way, %dB lines", g.CacheSize/1024, g.Assoc, g.LineSize)
	}
}
