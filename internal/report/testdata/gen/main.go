// Command gen regenerates the committed latency fixtures under
// internal/report/testdata: latency_base/, latency_regress/, and
// served_base/. Run from the repo root:
//
//	go run ./internal/report/testdata/gen
//
// The fixtures are partial run directories — manifest.json plus
// histograms.json, no events/trace/results — which is exactly what they
// also test: readers must load run dirs that carry only the artifacts
// their producing tool wrote.
//
// The samples are a deterministic lognormal (fixed seed) shaped like real
// measured latencies, so the quantile tables read plausibly:
//
//   - latency_base/ mimics the in-process decide path (median ≈ 300ns with
//     a 2% slow tail). latency_regress/ reuses the identical samples with
//     every value above the base p90 tripled: p50 stays put while
//     p99/p99.9 regress ≈ 3×, which is the seeded regression the latdiff
//     gate tests (and CI) assert exits 1.
//   - served_base/ mimics the HTTP-served decide path measured against a
//     local cmd/advisord (served p50 ≈ 12µs, p99 ≈ 120µs — handler time
//     recorded by the server, ~40× the in-process floor but still two
//     orders of magnitude under the 1ms service budget). CI's bench job
//     gates a live advisord run against it with `report latency` at
//     cross-hardware tolerance.
//
// The gen/ directory lives under testdata/, so the go tool ignores it for
// ./... builds and tests; it only compiles when run by path.
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"hamlet/internal/obs"
)

const samples = 100_000

func main() {
	base := sample()
	writeRun("latency_base", "loadgen", base)

	// Seeded regression: triple everything above the base p90.
	sorted := append([]int64(nil), base...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	p90 := sorted[len(sorted)*90/100]
	regress := make([]int64, len(base))
	for i, v := range base {
		if v > p90 {
			v *= 3
		}
		regress[i] = v
	}
	writeRun("latency_regress", "loadgen", regress)

	writeRun("served_base", "advisord", sampleServed())
}

// sample draws the deterministic base latencies (nanoseconds) for the
// in-process decide path: median ≈ 300ns with a 2% slow tail.
func sample() []int64 {
	rng := rand.New(rand.NewSource(1))
	vals := make([]int64, samples)
	for i := range vals {
		v := math.Exp(rng.NormFloat64()*0.6 + math.Log(300))
		if rng.Float64() < 0.02 {
			v *= 20 // slow tail: contended or cold-path requests
		}
		vals[i] = int64(v)
	}
	return vals
}

// sampleServed draws the deterministic served-latency baseline: handler
// time for POST /v1/decide as advisord's own histograms measured it under
// a 10k+ req/s loadgen -url run (p50 ≈ 12µs, p99 ≈ 120µs).
func sampleServed() []int64 {
	rng := rand.New(rand.NewSource(2))
	vals := make([]int64, samples)
	for i := range vals {
		v := math.Exp(rng.NormFloat64()*0.6 + math.Log(12_000))
		if rng.Float64() < 0.02 {
			v *= 10 // slow tail: scheduler preemption, GC, connection setup
		}
		vals[i] = int64(v)
	}
	return vals
}

// writeRun writes one fixture run dir: manifest.json + histograms.json.
func writeRun(name, tool string, latencies []int64) {
	h := obs.NewHistogram(obs.DefaultPrecision)
	for _, v := range latencies {
		h.Observe(v)
	}
	snap := h.Snapshot()

	dir := filepath.Join("internal", "report", "testdata", name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	manifest := obs.RunInfo{
		SchemaVersion: obs.SchemaVersion,
		Tool:          tool,
		Flags: map[string]string{
			"dataset":   "Walmart",
			"mode":      "decide",
			"precision": fmt.Sprint(obs.DefaultPrecision),
			"workers":   "8",
		},
		GoVersion:  "go(fixture)",
		GOOS:       "linux",
		GOARCH:     "amd64",
		GOMAXPROCS: 8,
		Start:      time.Date(2026, 8, 8, 0, 0, 0, 0, time.UTC),
	}
	writeJSON(filepath.Join(dir, obs.ManifestFile), manifest)
	writeJSON(filepath.Join(dir, obs.HistogramsFile), obs.HistogramsArtifact{
		SchemaVersion: obs.SchemaVersion,
		Histograms: map[string]obs.HistogramSnapshot{
			obs.LatencyHist: snap,
		},
	})
	fmt.Printf("%s: %d samples, p50 %v p99 %v\n", dir, snap.Count,
		time.Duration(snap.Quantile(0.50)), time.Duration(snap.Quantile(0.99)))
}

func writeJSON(path string, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
}
