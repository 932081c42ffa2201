// Package cache implements the per-processor data cache simulated in the
// paper: direct-mapped, copy-back, 32 KB with 32-byte lines, generalized to
// any power-of-two associativity. The same structure doubles, with different
// geometry, as the offline uniprocessor cache filter and as the 16-line
// fully-associative temporal-locality filter used by the PWS prefetching
// strategy.
//
// A machine's data caches form one group (NewGroup): they share a single tag
// table laid out [set][way][cache], so the tags of every cache for one set
// and way sit in one contiguous row. Holders reads that row and returns the
// bitmask of caches holding a line, which lets the simulator snoop only the
// holders instead of probing every cache. Tags live only in the table; a Line
// carries state and bookkeeping, not its tag. New builds a group of one, for
// victim caches and filters that no other cache snoops.
//
// The package stores cache state and per-line bookkeeping; the coherence
// state machine itself lives in internal/coherence (one Protocol
// implementation per protocol), and the protocol's bus side (who supplies
// data, when invalidations are posted) in internal/sim, which sees all
// caches at once. SnoopTable applies a protocol-supplied transition; the
// SnoopInvalidate and SnoopRead conveniences bake in the write-invalidate
// transitions shared by Illinois and MSI.
package cache
