// Package trace defines the multiprocessor address-trace representation that
// flows through the whole pipeline: workload generators emit traces, the
// offline prefetch inserter annotates them, and the multiprocessor simulator
// replays them. Events flow between the stages as a Source, one chunked
// iterator per processor, so no stage materializes the trace; the Trace
// type is the materialized form kept for persistence (Encode, Decode).
//
// A trace holds one event stream per processor. Each event carries a Gap —
// the number of ordinary (non-memory) instructions executed since the
// previous event — which models the paper's CPU timing of one cycle per
// instruction plus one cycle per data access. Synchronization shows up
// explicitly as Lock/Unlock/Barrier events so the simulator can keep the
// interleaving legal while the memory system perturbs timing (paper §3.3).
package trace
