package sim

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"busprefetch/internal/check"
	"busprefetch/internal/memory"
	"busprefetch/internal/prefetch"
	"busprefetch/internal/trace"
	"busprefetch/internal/workload"
)

// streamTestCell runs one workload/strategy cell both ways — materialized
// (Generate, annotate, replay the whole trace as one chunk per processor)
// and streamed (Source, AnnotateSource, RunSource over pooled chunks) —
// and requires identical Results: chunking never affects the simulation.
func streamTestCell(t *testing.T, w *workload.Workload, wp workload.Params, opt prefetch.Options) {
	t.Helper()
	cfg := DefaultConfig()

	tr, _, err := w.Generate(wp)
	if err != nil {
		t.Fatal(err)
	}
	annTr, err := prefetch.AnnotateSource(trace.FromTrace(tr), opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	ann, err := trace.Materialize(annTr)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunSource(cfg, trace.FromTrace(ann))
	if err != nil {
		t.Fatal(err)
	}

	src, _, err := w.Source(wp)
	if err != nil {
		t.Fatal(err)
	}
	annSrc, err := prefetch.AnnotateSource(src, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunSource(cfg, annSrc)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(got, want) {
		t.Errorf("streamed result differs from materialized result:\n got %+v\nwant %+v", got, want)
	}
}

func TestRunSourceMatchesRun(t *testing.T) {
	for _, w := range workload.All() {
		for _, strat := range []prefetch.Strategy{prefetch.NP, prefetch.PREF, prefetch.PWS} {
			w, strat := w, strat
			t.Run(w.Name+"/"+strat.String(), func(t *testing.T) {
				t.Parallel()
				streamTestCell(t, w, workload.Params{Scale: 0.05, Seed: 7},
					prefetch.Options{Strategy: strat, Geometry: memory.DefaultGeometry()})
			})
		}
	}
}

// kindSource yields a hand-built per-proc event sequence through a
// producer pipe; it exercises the replay's inline validation.
type kindSource struct {
	streams []trace.Stream
}

func (s *kindSource) Name() string { return "hand" }

func (s *kindSource) Procs() int { return len(s.streams) }

func (s *kindSource) Events(proc int) trace.Iterator {
	st := s.streams[proc]
	return trace.NewPipe(func(flush func([]trace.Event) []trace.Event) error {
		buf := flush(nil)
		for _, e := range st {
			buf = append(buf, e)
		}
		flush(buf)
		return nil
	})
}

func TestRunSourceInlineValidation(t *testing.T) {
	read := trace.Event{Kind: trace.Read, Addr: 0x1000}
	cases := []struct {
		name    string
		streams []trace.Stream
		want    string
	}{
		{
			name:    "unknown kind",
			streams: []trace.Stream{{read, {Kind: trace.Kind(250), Addr: 0x2000}}, {read}},
			want:    "unknown kind",
		},
		{
			name: "re-acquire held lock",
			streams: []trace.Stream{
				{{Kind: trace.Lock, Addr: 0x9000}, {Kind: trace.Lock, Addr: 0x9000}},
				{read},
			},
			want: "re-acquires held lock",
		},
		{
			name:    "release unheld lock",
			streams: []trace.Stream{{{Kind: trace.Unlock, Addr: 0x9000}}, {read}},
			want:    "releases unheld lock",
		},
		{
			name: "ends holding a lock",
			streams: []trace.Stream{
				{{Kind: trace.Lock, Addr: 0x9000}, read},
				{read},
			},
			want: "ends holding",
		},
		{
			name: "barrier value mismatch",
			streams: []trace.Stream{
				{{Kind: trace.Barrier, Addr: 0}},
				{{Kind: trace.Barrier, Addr: 1}},
			},
			want: "barrier",
		},
		{
			name: "barrier count mismatch",
			streams: []trace.Stream{
				{{Kind: trace.Barrier, Addr: 1}, read, {Kind: trace.Barrier, Addr: 2}},
				{{Kind: trace.Barrier, Addr: 1}},
			},
			want: "barriers",
		},
		{
			name: "barrier count mismatch, short stream first",
			streams: []trace.Stream{
				{{Kind: trace.Barrier, Addr: 1}},
				{{Kind: trace.Barrier, Addr: 1}, {Kind: trace.Read, Addr: 0x1000, Gap: 5000}, {Kind: trace.Barrier, Addr: 2}},
			},
			want: "finished after 1 barriers",
		},
		{
			name: "barrier count mismatch, long stream first",
			streams: []trace.Stream{
				{{Kind: trace.Barrier, Addr: 1}, {Kind: trace.Barrier, Addr: 2}},
				{{Kind: trace.Barrier, Addr: 1}, {Kind: trace.Read, Addr: 0x1000, Gap: 5000}},
			},
			want: "ends after 1 barriers",
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			_, err := RunSource(DefaultConfig(), &kindSource{streams: tc.streams})
			if err == nil {
				t.Fatalf("invalid stream simulated without error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error = %v, want it to mention %q", err, tc.want)
			}
			var stall *check.StallError
			if errors.As(err, &stall) {
				t.Errorf("invalid stream reported as a stall: %v", err)
			}
		})
	}
}

// errSource fails mid-stream; the run must surface the error, not hang or
// report a stall.
type errSource struct{ boom error }

func (s *errSource) Name() string { return "err" }

func (s *errSource) Procs() int { return 2 }

func (s *errSource) Events(proc int) trace.Iterator {
	boom := s.boom
	return trace.NewPipe(func(flush func([]trace.Event) []trace.Event) error {
		buf := flush(nil)
		buf = append(buf, trace.Event{Kind: trace.Read, Addr: 0x1000})
		flush(buf)
		if proc == 1 {
			return boom
		}
		return nil
	})
}

func TestRunSourceIteratorError(t *testing.T) {
	boom := errors.New("synthetic stream failure")
	_, err := RunSource(DefaultConfig(), &errSource{boom: boom})
	if err == nil {
		t.Fatal("failing source simulated without error")
	}
	if !errors.Is(err, boom) {
		t.Errorf("error = %v, want it to wrap the source failure", err)
	}
}

func TestRunSourceRejectsBadProcs(t *testing.T) {
	if _, err := RunSource(DefaultConfig(), &kindSource{}); err == nil {
		t.Error("zero-proc source accepted")
	}
	many := &kindSource{streams: make([]trace.Stream, 65)}
	if _, err := RunSource(DefaultConfig(), many); err == nil {
		t.Error("65-proc source accepted")
	}
}
