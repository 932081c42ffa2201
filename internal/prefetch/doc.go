// Package prefetch implements the paper's offline prefetch insertion: the
// "ideal for current compiler-directed prefetching technology", an oracle
// that perfectly predicts non-sharing misses and places a prefetch
// instruction a fixed number of estimated CPU cycles ahead of each predicted
// miss (paper §3.1).
//
// The five disciplines of §4.1 are reproduced exactly:
//
//	NP    no prefetching (the annotation is the identity).
//	PREF  prefetch every access the uniprocessor cache filter predicts to
//	      miss, 100 cycles ahead, in shared mode.
//	EXCL  as PREF, but predicted write misses prefetch in exclusive mode.
//	LPD   as PREF with a 400-cycle prefetch distance.
//	PWS   as PREF, plus redundant prefetches of write-shared lines chosen
//	      by a 16-line associative temporal-locality filter.
//
// AnnotateSource is the one production annotator: it streams a trace
// source through the oracle in bounded memory (source.go). The materialized
// annotator it replaced survives only in the package tests, as the
// independent reference AnnotateSource is checked against event for event.
//
// The oracle is one implementation of the pluggable Prefetcher interface
// (engine.go). Beside it sit three online engines — stride, temporal
// (SISB-style), and pointer-chase — that train on the demand stream during
// the simulation and issue prefetches with no future knowledge, selected
// per run by sim.Config.Online (see DESIGN.md §5b).
package prefetch
