// Package sim is this repository's analogue of Charlie, the multiprocessor
// cache simulator used in the paper (§3.3). It replays a multiprocessor
// address trace through per-processor snooping caches connected by the
// contended memory resource of internal/bus, while enforcing a legal
// interleaving of lock and barrier synchronization. The coherence state
// machine itself — fill states, write-hit actions, snoop responses, legality
// — is supplied by a pluggable internal/coherence.Protocol (Illinois by
// default; MSI and Dragon write-update as ablations).
//
// RunSource is the one entry point. It drains a trace.Source chunk by chunk
// — a workload generator, an annotated wrapping of one, a decoded BPTR file,
// or a materialized trace through trace.FromTrace — and checks the trace's
// structural rules inline as events retire, so an inconsistent trace fails
// as a terminal error rather than as a watchdog stall.
//
// Modeled behaviour, following the paper:
//
//   - CPUs execute one cycle per instruction plus one cycle per data access
//     that hits; demand misses block the CPU (blocking loads).
//   - Caches are lockup-free for prefetches: a 16-deep prefetch issue buffer
//     lets the CPU continue past outstanding prefetches, stalling only when
//     the buffer is full.
//   - The 100-cycle memory latency splits into an uncontended portion and a
//     contended data-transfer portion of 4-32 cycles; bus arbitration is
//     round-robin and favors blocking loads over prefetches.
//   - A demand access to a line whose prefetch is still in flight merges with
//     it and stalls for the residual latency (a prefetch-in-progress miss).
//   - Every CPU miss is classified for the paper's Figure 3 taxonomy:
//     {non-sharing, invalidation} x {prefetched, not prefetched} plus
//     prefetch-in-progress, with invalidation misses further tested for
//     false sharing.
package sim
