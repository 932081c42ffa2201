package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sync"
	"time"
)

// spanLog keeps a traced run's spans in memory until the run ends. A span
// covers one call into a layer; spans of one operation share a trace id,
// and a span's parent is the span that caused it.
type spanLog struct {
	t0 time.Time

	mu    sync.Mutex
	next  int64
	spans []span
}

type span struct {
	ID     int64
	Parent int64
	Trace  int64
	Name   string
	Start  time.Duration
	Dur    time.Duration
	Attrs  map[string]string
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// openSpan is a span begun and not yet ended.
type openSpan struct {
	log   *spanLog
	id    int64
	start time.Time
	span  span
}

// begin opens a span named name under parent (0 for a root) in trace. On a
// nil log it only starts a timer, so untraced code can share the call.
func (l *spanLog) begin(trace, parent int64, name string, attrs map[string]string) *openSpan {
	if l == nil {
		return &openSpan{start: time.Now()}
	}
	l.mu.Lock()
	l.next++
	id := l.next
	l.mu.Unlock()
	now := time.Now()
	return &openSpan{log: l, id: id, start: now,
		span: span{ID: id, Parent: parent, Trace: trace, Name: name, Start: now.Sub(l.t0), Attrs: attrs}}
}

// end closes the span and returns its duration.
func (s *openSpan) end() time.Duration {
	d := time.Since(s.start)
	if s.log == nil {
		return d
	}
	s.span.Dur = d
	s.log.mu.Lock()
	s.log.spans = append(s.log.spans, s.span)
	s.log.mu.Unlock()
	return d
}

// timed runs fn inside a span and returns fn's duration.
func (l *spanLog) timed(trace, parent int64, name string, attrs map[string]string, fn func() error) (time.Duration, error) {
	s := l.begin(trace, parent, name, attrs)
	err := fn()
	return s.end(), err
}

// write saves the spans as Chrome trace-event JSON (loadable in Perfetto)
// under .bench_build/spans/.
func (l *spanLog) write(workload string, seed int64) (string, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int64          `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(l.spans))
	for _, s := range l.spans {
		args := map[string]any{"id": s.ID, "parent": s.Parent}
		for k, v := range s.Attrs {
			args[k] = v
		}
		events = append(events, event{Name: s.Name, Ph: "X", Ts: float64(s.Start) / 1e3,
			Dur: float64(s.Dur) / 1e3, Pid: 1, Tid: s.Trace, Args: args})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return "", err
	}
	path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", workload, seed))
	return fmt.Sprintf("spans: %d written to %s", len(events), path), writeFile(path, data)
}
