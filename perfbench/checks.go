package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// digestsFile holds, per workload, the output digests and exact counts of
// one run at recordedSeed. Regenerate it with --record after a change that
// is meant to alter simulated results; a speed-only change must leave it
// valid.
//
//go:embed digests.json
var digestsFile []byte

const digestsPath = "perfbench/digests.json"

type workloadRecord struct {
	Digests map[string]string `json:"digests"`
	Counts  map[string]uint64 `json:"counts"`
}

func loadRecords() (map[string]workloadRecord, error) {
	recs := map[string]workloadRecord{}
	if len(digestsFile) == 0 {
		return recs, nil
	}
	if err := json.Unmarshal(digestsFile, &recs); err != nil {
		return nil, fmt.Errorf("decoding embedded digests: %w", err)
	}
	return recs, nil
}

// digest fingerprints an output.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:12])
}

// checkDigest records an output's digest under key and reports whether it
// agrees with the digest recorded for key at recordedSeed. At any other
// seed there is no recorded digest and it agrees trivially; the workloads
// cross-check those outputs against an independent computation instead.
func (b *bench) checkDigest(key, d string) bool {
	if prev, ok := b.digests[key]; ok && prev != d {
		b.fail("%s: output changed between repeats of the same input (%s then %s)", key, prev, d)
		return false
	}
	b.digests[key] = d
	if b.seed != recordedSeed || b.recording {
		return true
	}
	want, ok := b.want.Digests[key]
	if !ok {
		b.fail("%s: no digest recorded at seed %d", key, recordedSeed)
		return false
	}
	if want != d {
		b.fail("%s: output digest %s, recorded %s", key, d, want)
		return false
	}
	return true
}

// setCount records an exact count, failing if an earlier unit of the same
// run recorded a different value for it.
func (b *bench) setCount(name string, v uint64) {
	if prev, ok := b.counts[name]; ok && prev != v {
		b.fail("exact count %s was %d, then %d in a repeat of the same work", name, prev, v)
		return
	}
	b.counts[name] = v
}

// checkExact compares this run's exact counts with the counts recorded at
// recordedSeed and with those of earlier runs of the same binary and seed
// in this checkout. It reports false, loudly, on any difference.
func (b *bench) checkExact() bool {
	ok := true
	// compare checks every count in want; strict also requires want to
	// have every count this run made.
	compare := func(what string, want map[string]uint64, strict bool) {
		for name, w := range want {
			got, present := b.counts[name]
			if !present || got != w {
				fmt.Fprintf(os.Stderr, "perfbench: FAIL: exact count %s = %d, %s has %d\n", name, got, what, w)
				ok = false
			}
		}
		for name := range b.counts {
			if _, present := want[name]; strict && !present {
				fmt.Fprintf(os.Stderr, "perfbench: FAIL: exact count %s missing from %s (has %s)\n", name, what, keyList(want))
				ok = false
			}
		}
	}
	if b.seed == recordedSeed {
		// The record comes from an untraced run; a traced run makes the
		// same counts plus the model counts only sim.Result carries.
		compare("the recorded counts", b.want.Counts, !b.traced)
	}
	path, err := countsPath(b.workload, b.seed, b.traced)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", err)
		return false
	}
	if prev, err := os.ReadFile(path); err == nil {
		var want map[string]uint64
		if err := json.Unmarshal(prev, &want); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: FAIL: %s: %v\n", path, err)
			return false
		}
		compare("an earlier run ("+path+")", want, true)
	} else if os.IsNotExist(err) {
		if !ok || b.failed > 0 {
			return false // a wrong run must not become the reference
		}
		data, _ := json.MarshalIndent(b.counts, "", "  ")
		if err := writeFile(path, data); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: FAIL:", err)
			return false
		}
	} else {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", err)
		return false
	}
	names := make([]string, 0, len(b.counts))
	for n := range b.counts {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		b.note("%-34s %14d %-7s  exact", "count "+n, b.counts[n], "count")
	}
	return ok
}

// countsPath keys the cross-run count file by a hash of the running
// binary, so counts are only ever compared between runs of the same code.
func countsPath(workload string, seed int64, traced bool) (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	build := hex.EncodeToString(h.Sum(nil)[:8])
	return filepath.Join(".bench_build", "counts", build, fmt.Sprintf("%s-seed%d-traced%t.json", workload, seed, traced)), nil
}

// writeFile writes data to path, creating its directory.
func writeFile(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// recordDigests rewrites this workload's entry in the digests file.
func recordDigests(b *bench) error {
	if b.failed > 0 {
		return fmt.Errorf("not recording: %d operations failed: %v", b.failed, b.problems)
	}
	recs, err := loadRecords()
	if err != nil {
		return err
	}
	recs[b.workload] = workloadRecord{Digests: b.digests, Counts: b.counts}
	data, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return err
	}
	if err := writeFile(digestsPath, append(data, '\n')); err != nil {
		return err
	}
	fmt.Printf("perfbench: recorded %d digests and %d counts for %s in %s\n", len(b.digests), len(b.counts), b.workload, digestsPath)
	return nil
}
