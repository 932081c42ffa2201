// Command tracegen generates a workload's multiprocessor address trace,
// prints its statistics and sharing profile, and can save it in the binary
// trace format (replayable with prefetchsim -trace).
//
// Usage:
//
//	tracegen -workload mp3d                       # statistics only
//	tracegen -workload water -o water.bptr        # save the trace
//	tracegen -workload pverify -restructured -strategy PWS # PWS annotation stats
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"busprefetch/internal/buildinfo"
	"busprefetch/internal/memory"
	"busprefetch/internal/prefetch"
	"busprefetch/internal/trace"
	"busprefetch/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "tracegen:", err)
		}
		os.Exit(1)
	}
}

// run is the whole command behind flag parsing; every failure comes back as
// an error and turns into one diagnostic line and a non-zero exit.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	var (
		wlName       = fs.String("workload", "mp3d", "workload: topopt, mp3d, locus, pverify, water")
		procs        = fs.Int("procs", 0, "processor count (0 = workload default)")
		scale        = fs.Float64("scale", 1.0, "trace length multiplier")
		seed         = fs.Int64("seed", 1, "generator seed")
		restructured = fs.Bool("restructured", false, "use the restructured layout")
		stratName    = fs.String("strategy", "NP", "annotate with a prefetch strategy before reporting/saving")
		outPath      = fs.String("o", "", "write the trace in binary format to this file")
		version      = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(stdout, buildinfo.String("tracegen"))
		return nil
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (flags only)", fs.Arg(0))
	}
	// Resolve the strategy before generating so a typo'd flag fails fast.
	strat, err := prefetch.ParseStrategy(*stratName)
	if err != nil {
		return err
	}
	w, err := workload.ByName(*wlName)
	if err != nil {
		return err
	}
	src, info, err := w.Source(workload.Params{Procs: *procs, Scale: *scale, Seed: *seed, Restructured: *restructured})
	if err != nil {
		return err
	}
	geom := memory.DefaultGeometry()
	annotated, err := prefetch.AnnotateSource(src, prefetch.Options{Strategy: strat, Geometry: geom}, nil)
	if err != nil {
		return err
	}
	t, err := trace.Materialize(annotated)
	if err != nil {
		return err
	}
	// The streaming pipeline validates inline as it simulates; a saved
	// trace is checked whole before it is reported or written.
	if err := t.Validate(); err != nil {
		return err
	}

	st, err := trace.SummarizeSource(trace.FromTrace(t), geom)
	if err != nil {
		return err
	}
	overhead := 0.0
	if st.DemandRefs > 0 {
		overhead = float64(st.Prefetches) / float64(st.DemandRefs)
	}
	fmt.Fprintf(stdout, "workload %s (%s)\n", info.Name, info.Description)
	fmt.Fprintf(stdout, "  processes:      %d\n", st.Procs)
	fmt.Fprintf(stdout, "  events:         %d\n", st.Events)
	fmt.Fprintf(stdout, "  demand refs:    %d (%d reads, %d writes, %d sync locks)\n", st.DemandRefs, st.Reads, st.Writes, st.Locks)
	fmt.Fprintf(stdout, "  prefetches:     %d (overhead %.1f%%)\n", st.Prefetches, 100*overhead)
	fmt.Fprintf(stdout, "  barriers:       %d\n", st.Barriers)
	fmt.Fprintf(stdout, "  data touched:   %d KB (declared data set %d KB)\n", st.TouchedData/1024, info.DataSet/1024)
	fmt.Fprintf(stdout, "  shared data:    %d KB touched by >1 process\n", st.SharedData/1024)
	fmt.Fprintf(stdout, "  write-shared:   %d KB\n", st.WriteShared/1024)

	prof, err := trace.AnalyzeSharingSource(trace.FromTrace(t), geom)
	if err != nil {
		return err
	}
	priv, rs, ws := prof.Counts()
	fmt.Fprintf(stdout, "  lines: %d private, %d read-shared, %d write-shared\n", priv, rs, ws)

	if *outPath == "" {
		return nil
	}
	size, err := writeTrace(*outPath, t)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "  wrote %s (%d bytes, %.2f bytes/event)\n", *outPath, size, float64(size)/float64(st.Events))
	return nil
}

// writeTrace encodes t to path via temp + rename, so a crash or Ctrl-C
// mid-encode leaves either the previous complete trace or none — never a
// torn file a later replay would have to diagnose. It returns the file's
// size.
func writeTrace(path string, t *trace.Trace) (int64, error) {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	if err := trace.Encode(f, t); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	if err := os.Rename(f.Name(), path); err != nil {
		return 0, err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}
