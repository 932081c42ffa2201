package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"busprefetch"
	"busprefetch/internal/experiments"
	"busprefetch/internal/runner"
	"busprefetch/internal/server"
)

// serveScale matches the other workloads: a miss computes one cell.
const serveScale = 0.2

// The serve mix is the water row of the paper's grid: five disciplines at
// five transfer latencies. Hot specs (PREF) are computed once per round and
// then served from the store, first from memory and, after a restart, from
// disk; fresh specs (the other four disciplines) are computed every time.
// Misses are over two thirds of a round's jobs, so the median job and the
// tail both fall inside the miss mode: a sub-millisecond hit's latency on a
// shared host moves with the host far more than with the program. The
// median falls among the cells without the sharing pre-pass (15-22 ms),
// and the tail among the PWS cells, which run it (about 35 ms), rather
// than on whichever misses the host happened to slow.
var hotSpecs, freshSpecs = serveMix()

func serveMix() (hot, fresh []server.RunRequest) {
	for _, t := range []int{4, 8, 16, 24, 32} {
		hot = append(hot, server.RunRequest{Workload: "water", Strategy: "PREF", Transfer: t})
		for _, st := range []string{"NP", "EXCL", "LPD", "PWS"} {
			fresh = append(fresh, server.RunRequest{Workload: "water", Strategy: st, Transfer: t})
		}
	}
	return hot, fresh
}

// sweepRequest is the serve mix's one small sweep: Table 2 over one
// transfer latency, 25 cells at a quarter of the run scale.
func sweepRequest(seed int64) server.SweepRequest {
	return server.SweepRequest{Scale: serveScale / 4, Seed: seed, Transfers: []int{8}, Sections: []string{"table2"}}
}

// job classes, by the store tier that should serve them.
const (
	classMiss  = "miss"
	classHit   = "hit"
	classDisk  = "disk_hit"
	classSweep = "sweep"
)

type job struct {
	path, key, class string
	body             []byte
	cached           bool // the "cached" flag the response must carry
}

type jobOutcome struct {
	job
	status int
	ms     float64
	res    server.JobResource
	err    error
}

// instance is one in-process server on a loopback listener.
type instance struct {
	srv    *server.Server
	hs     *http.Server
	base   string
	cancel context.CancelFunc
	served chan error
}

func boot(dir string, client *http.Client) (*instance, error) {
	cs, err := runner.OpenCheckpointStore(dir)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	// Workers x Shards stays within maxParallel.
	srv := server.New(ctx, server.Options{Workers: maxParallel, Shards: 1, Checkpoints: cs})
	in := &instance{srv: srv, hs: &http.Server{Handler: srv.Handler()}, base: "http://" + ln.Addr().String(),
		cancel: cancel, served: make(chan error, 1)}
	go func() { in.served <- in.hs.Serve(ln) }()
	resp, err := client.Get(in.base + "/v1/healthz")
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz answered %s", resp.Status)
		}
	}
	if err != nil {
		_ = in.stop(client) // the boot error is the one to report
		return nil, err
	}
	return in, nil
}

// stop drains the server, stops its workers and its listener, and waits
// for Serve to return. It first closes the client's idle connections:
// Shutdown waits up to five seconds for a connection that was dialed but
// never sent a request.
func (in *instance) stop(client *http.Client) error {
	client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	err := in.srv.Drain(ctx)
	in.cancel()
	if serr := in.hs.Shutdown(ctx); err == nil {
		err = serr
	}
	if serr := <-in.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	return err
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

type statsBody struct {
	Results     runner.ResultStats      `json:"results"`
	Checkpoints *runner.CheckpointStats `json:"checkpoints"`
}

// drive runs jobs through one closed-loop client, which sends each job
// after the previous one has returned, and returns every outcome in job
// order.
func drive(client *http.Client, base string, jobs []job, l *spanLog, traceID int64) []jobOutcome {
	const tenant = "client"
	out := make([]jobOutcome, len(jobs))
	for i, j := range jobs {
		o := jobOutcome{job: j}
		sp := l.begin(traceID, 0, "server.job", map[string]string{"class": j.class, "tenant": tenant, "path": j.path})
		o.status, o.res, o.err = post(client, base+j.path, tenant, j.body)
		o.ms = ms(sp.end())
		out[i] = o
	}
	return out
}

func post(client *http.Client, url, tenant string, body []byte) (int, server.JobResource, error) {
	var res server.JobResource
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, res, err
	}
	req.Header.Set("X-Tenant", tenant)
	resp, err := client.Do(req)
	if err != nil {
		return 0, res, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return resp.StatusCode, res, err
	}
	return resp.StatusCode, res, json.Unmarshal(data, &res)
}

// roundJobs builds one round's three phases, each in a seeded order: the
// misses (the hot set's first submissions, the fresh specs and, in the
// first round, the sweep); the hot set's resubmissions, all memory-tier
// hits; and, after a restart on the same store, the hot set once more,
// all disk-tier hits.
func roundJobs(seed int64, first bool) (misses, hits, replay []job, err error) {
	run := func(r server.RunRequest, class string, cached bool) (job, error) {
		r.Scale, r.Seed = serveScale, seed
		body, err := json.Marshal(r)
		if err != nil {
			return job{}, err
		}
		key, err := runSpec(r).SpecString()
		return job{path: "/v1/runs?wait=1", key: key, class: class, body: body, cached: cached}, err
	}
	for _, r := range hotSpecs {
		m, err := run(r, classMiss, false)
		if err != nil {
			return nil, nil, nil, err
		}
		h, _ := run(r, classHit, true)
		d, _ := run(r, classDisk, true)
		misses = append(misses, m)
		hits = append(hits, h)
		replay = append(replay, d)
	}
	for _, r := range freshSpecs {
		f, err := run(r, classMiss, false)
		if err != nil {
			return nil, nil, nil, err
		}
		misses = append(misses, f)
	}
	if first {
		body, err := json.Marshal(sweepRequest(seed))
		if err != nil {
			return nil, nil, nil, err
		}
		misses = append(misses, job{path: "/v1/sweeps?wait=1", key: "sweep.report", class: classSweep, body: body})
	}
	rng := rand.New(rand.NewSource(seed))
	for _, phase := range [][]job{misses, hits, replay} {
		rng.Shuffle(len(phase), func(i, j int) { phase[i], phase[j] = phase[j], phase[i] })
	}
	return misses, hits, replay, nil
}

// runSpec is the RunSpec a RunRequest stands for (the fields the mix sets).
func runSpec(r server.RunRequest) busprefetch.RunSpec {
	return busprefetch.RunSpec{Workload: r.Workload, Strategy: r.Strategy, Transfer: r.Transfer, Scale: r.Scale, Seed: r.Seed}
}

// mixSpecs is every run spec of the serve mix, hot then fresh, as RunSpecs
// at the serve scale and the given seed.
func mixSpecs(seed int64) []busprefetch.RunSpec {
	var specs []busprefetch.RunSpec
	for _, r := range append(append([]server.RunRequest(nil), hotSpecs...), freshSpecs...) {
		r.Scale, r.Seed = serveScale, seed
		specs = append(specs, runSpec(r))
	}
	return specs
}

// serveRound is one round's measurements.
type serveRound struct {
	setup, restart, wall time.Duration
	alloc                uint64
	outcomes             []jobOutcome
	before, after        statsBody
}

// round boots a server on a fresh store, drives the three phases with a
// restart on the same store between the second and the third, and stops
// the server.
func (b *bench) round(client *http.Client, dir string, n int, l *spanLog) (serveRound, error) {
	var r serveRound
	misses, hits, replay, err := roundJobs(b.seed, n == 0)
	if err != nil {
		return r, err
	}
	t0 := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return r, err
	}
	in, err := boot(dir, client)
	if err != nil {
		return r, err
	}
	r.setup = time.Since(t0)

	id := int64(n + 1)
	t1, a0 := time.Now(), totalAlloc()
	r.outcomes = append(r.outcomes, drive(client, in.base, misses, l, id)...)
	r.outcomes = append(r.outcomes, drive(client, in.base, hits, l, id)...)
	statsErr := getJSON(client, in.base+"/v1/stats", &r.before)
	sp := l.begin(id, 0, "server.restart", nil)
	if err := in.stop(client); err != nil {
		return r, fmt.Errorf("stopping the server: %w", err)
	}
	if in, err = boot(dir, client); err != nil {
		return r, fmt.Errorf("restarting on the same store: %w", err)
	}
	r.restart = sp.end()
	r.outcomes = append(r.outcomes, drive(client, in.base, replay, l, id)...)
	r.wall, r.alloc = time.Since(t1), totalAlloc()-a0
	if err := getJSON(client, in.base+"/v1/stats", &r.after); statsErr == nil {
		statsErr = err
	}
	if err := in.stop(client); err != nil {
		return r, fmt.Errorf("stopping the server: %w", err)
	}
	return r, statsErr
}

// bootSample times one set-up of a server on a fresh store, then stops the
// server and removes the store.
func bootSample(client *http.Client, dir string) (time.Duration, error) {
	t0 := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	in, err := boot(dir, client)
	if err != nil {
		return 0, err
	}
	d := time.Since(t0)
	if err := in.stop(client); err != nil {
		return 0, err
	}
	return d, os.RemoveAll(dir)
}

// runServe drives rounds against an in-process server until the budget is
// spent, then checks every response. A traced run alternates untraced and
// traced rounds, then times the layers of every spec the mix computes.
func runServe(ctx context.Context, b *bench) error {
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: maxParallel, MaxConnsPerHost: maxParallel}}
	defer client.CloseIdleConnections()
	root := filepath.Join(".bench_build", "serve", fmt.Sprint(os.Getpid()))
	defer os.RemoveAll(root)

	var (
		setups, restartMs, untracedS, tracedS []float64
		lat                                   []float64
		byClass                               = map[string][]float64{}
		jobs                                  int
		units                                 []unit
		payloads                              = map[string][]byte{}
		sweepBench                            *runner.BenchReport
		rejected                              uint64
	)
	if err := warmUp(ctx, mixSpecs(b.seed)); err != nil {
		return err
	}
	start := time.Now()
	for n := 0; n < 2 || (b.traced && (len(tracedS) == 0 || len(untracedS) == 0)) || time.Since(start) < b.budget; n++ {
		var l *spanLog
		if b.traced && n%2 == 1 {
			l = b.spans
		}
		dir := filepath.Join(root, fmt.Sprint(n))
		r, err := b.round(client, dir, n, l)
		if err != nil {
			return fmt.Errorf("round %d: %w", n+1, err)
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		setups = append(setups, r.setup.Seconds())
		// More boot samples, so the set-up median spans the run.
		for k := 0; k < 3; k++ {
			d, err := bootSample(client, filepath.Join(root, fmt.Sprintf("boot-%d-%d", n, k)))
			if err != nil {
				return err
			}
			setups = append(setups, d.Seconds())
		}
		restartMs = append(restartMs, ms(r.restart))
		// The first round also runs the sweep job, so it is left out of the
		// traced-versus-untraced comparison.
		if l != nil {
			tracedS = append(tracedS, r.wall.Seconds())
		} else if n > 0 {
			untracedS = append(untracedS, r.wall.Seconds())
		}
		u := unit{ops: len(r.outcomes), wall: r.wall, alloc: r.alloc}
		for _, o := range r.outcomes {
			b.attempted++
			jobs++
			lat = append(lat, o.ms)
			byClass[o.class] = append(byClass[o.class], o.ms)
			bench, jobRefs, ok := b.checkJob(o, payloads)
			u.refs += jobRefs
			if bench != nil {
				sweepBench = bench
			}
			if !ok && (o.status == http.StatusTooManyRequests || o.status == http.StatusServiceUnavailable) {
				rejected++
			}
		}
		units = append(units, u)
		b.storeCounts(n, r)
	}
	b.crossCheck(ctx, payloads)
	b.setCount("server.rejected", rejected)
	b.note("serve: %d rounds, %d jobs (%d hits, %d misses, %d disk hits, %d sweeps)", len(restartMs), jobs,
		len(byClass[classHit]), len(byClass[classMiss]), len(byClass[classDisk]), len(byClass[classSweep]))

	if b.traced {
		for class, name := range map[string]string{classHit: "server.job_ms_hit_p50", classMiss: "server.job_ms_miss_p50",
			classDisk: "server.job_ms_disk_hit_p50"} {
			b.report(name, medianOrZero(byClass[class]), "ms", fmt.Sprintf("client side, %d jobs", len(byClass[class])))
		}
		b.report("server.restart_ms", median(restartMs), "ms", "stop, reopen the store, boot, healthz")
		b.reportCounts("runner.store_hits", "runner.store_misses", "runner.store_disk_hits", "runner.checkpoint_puts", "server.rejected")
		if sweepBench != nil {
			b.report("runner.trace_cache_hits", float64(sweepBench.TraceCacheHits), "count", "the sweep job's suite")
			b.report("runner.trace_cache_misses", float64(sweepBench.TraceCacheMisses), "count", "the sweep job's suite")
			b.report("runner.pool_efficiency", sweepBench.CellMillisTotal/(float64(sweepBench.Workers)*sweepBench.TotalMillis),
				"ratio", "the sweep job: sum of cell times / (workers x wall)")
		}
		b.reportOverhead("round", untracedS, tracedS)
		var totals layerTotals
		results, _, err := b.traceSpecs(ctx, mixSpecs(b.seed), 1000000, &totals)
		if err != nil {
			return err
		}
		b.reportLayers(&totals)
		b.setCounts(modelCounts(results))
		b.reportCounts("sim.cycles", "cache.cpu_misses", "coherence.inval_misses", "coherence.updates_sent",
			"bus.ops", "bus.busy_cycles", "bus.demand_grants", "bus.prefetch_grants", "prefetch.prefetches")
		b.finishLayers()
		return nil
	}
	if err := b.reportLatency("job", lat); err != nil {
		return err
	}
	b.reportHost(setups, units, "job", "round")
	for _, class := range []string{classHit, classMiss, classDisk} {
		b.note("%-34s %14.6g %-7s  median, %d jobs", "job_ms_p50."+class, medianOrZero(byClass[class]), "ms", len(byClass[class]))
	}
	return nil
}

// checkJob checks one response: status, the cached flag its tier implies,
// and its result against every other result for the same spec and the
// recorded digest. It returns the sweep's bench report, if the job was the
// sweep, and the demand references the result covers.
func (b *bench) checkJob(o jobOutcome, payloads map[string][]byte) (*runner.BenchReport, uint64, bool) {
	switch {
	case o.err != nil:
		b.fail("%s %s: %v", o.class, o.key, o.err)
		return nil, 0, false
	case o.status != http.StatusOK:
		b.fail("%s %s: HTTP %d", o.class, o.key, o.status)
		return nil, 0, false
	case o.res.Status != "done":
		b.fail("%s %s: job status %q (%v)", o.class, o.key, o.res.Status, o.res.Error)
		return nil, 0, false
	case o.res.Cached != o.cached:
		b.fail("%s %s: cached=%t, want %t", o.class, o.key, o.res.Cached, o.cached)
		return nil, 0, false
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, o.res.Result); err != nil {
		b.fail("%s %s: result: %v", o.class, o.key, err)
		return nil, 0, false
	}
	if o.class == classSweep {
		var sr server.SweepResult
		if err := json.Unmarshal(compact.Bytes(), &sr); err != nil || len(sr.FailedCells) > 0 {
			b.fail("sweep: result %v, %d failed cells", err, len(sr.FailedCells))
			return nil, 0, false
		}
		payloads[o.key] = []byte(sr.Report)
		return sr.Bench, 0, b.checkDigest(o.key, digest([]byte(sr.Report)))
	}
	var rr server.RunResult
	if err := json.Unmarshal(compact.Bytes(), &rr); err != nil || rr.Metrics == nil {
		b.fail("%s %s: result: %v", o.class, o.key, err)
		return nil, 0, false
	}
	if _, ok := payloads[o.key]; !ok {
		payloads[o.key] = compact.Bytes()
	}
	return nil, rr.Metrics.DemandRefs, b.checkDigest(o.key, digest(compact.Bytes()))
}

// storeCounts records the result store's and the checkpoint store's
// counts for a round; every round after the first must repeat them.
func (b *bench) storeCounts(n int, r serveRound) {
	prefix := ""
	if n == 0 {
		prefix = "first_round." // the sweep job adds to the first round's counts
	}
	puts := uint64(0)
	if r.before.Checkpoints != nil {
		puts = r.before.Checkpoints.Puts
	}
	b.setCount(prefix+"runner.store_hits", r.before.Results.Hits+r.after.Results.Hits)
	b.setCount(prefix+"runner.store_misses", r.before.Results.Misses+r.after.Results.Misses)
	b.setCount(prefix+"runner.store_disk_hits", r.before.Results.DiskHits+r.after.Results.DiskHits)
	b.setCount(prefix+"runner.checkpoint_puts", puts)
	want := uint64(len(hotSpecs))
	if r.after.Results.DiskHits != want || r.after.Results.Misses != 0 {
		b.fail("round %d: after the restart the store served %d disk hits and %d misses, want %d and 0",
			n+1, r.after.Results.DiskHits, r.after.Results.Misses, want)
	}
}

// crossCheck recomputes every result the server returned: each run with
// busprefetch.Run, and the sweep with a suite of the same configuration.
// The recomputed runs also give the model counts of a round's cells.
func (b *bench) crossCheck(ctx context.Context, payloads map[string][]byte) {
	var computed []*busprefetch.Metrics
	defer func() { b.setCounts(metricCounts(computed)) }()
	for _, spec := range mixSpecs(b.seed) {
		key, _ := spec.SpecString()
		m, err := busprefetch.RunContext(ctx, spec)
		if err != nil {
			b.fail("cross-check %s: %v", key, err)
			continue
		}
		computed = append(computed, m)
		want, err := json.Marshal(server.RunResult{Metrics: m})
		if err != nil || !bytes.Equal(want, payloads[key]) {
			b.fail("cross-check %s: the server's result differs from busprefetch.Run's", key)
		}
	}
	req := sweepRequest(b.seed)
	suite := experiments.NewSuite(experiments.Config{Scale: req.Scale, Seed: req.Seed, Transfers: req.Transfers, Parallelism: 1})
	want := func(name string) bool { return name == "table2" }
	err := suite.Prewarm(ctx, suite.KeysFor(want), nil)
	var text string
	if err == nil {
		text, err = suite.RenderSections(ctx, want)
	}
	if err != nil || text+"\n" != string(payloads["sweep.report"]) {
		b.fail("cross-check sweep: the server's report differs from RenderSections' (%v)", err)
	}
}
