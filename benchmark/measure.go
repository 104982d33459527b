package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by nearest rank (NaN when empty).
// xs is left untouched.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// sum adds xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// usage is a snapshot of the process counters a timed window is measured
// by: CPU time from getrusage, allocation and GC totals from MemStats.
type usage struct {
	cpu     time.Duration
	alloc   uint64
	gcs     uint32
	pauseNS uint64
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return usage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:   ms.TotalAlloc,
		gcs:     ms.NumGC,
		pauseNS: ms.PauseTotalNs,
	}
}

// since returns the counters accumulated after u.
func (u usage) since() usage {
	now := readUsage()
	return usage{
		cpu:     now.cpu - u.cpu,
		alloc:   now.alloc - u.alloc,
		gcs:     now.gcs - u.gcs,
		pauseNS: now.pauseNS - u.pauseNS,
	}
}

// heapAfterGC collects garbage and returns the live heap in bytes.
func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	v, err := procField("/proc/self/status", "VmHWM:")
	if err != nil {
		return 0, err
	}
	kb, err := strconv.ParseFloat(strings.TrimSuffix(v, " kB"), 64)
	if err != nil {
		return 0, fmt.Errorf("parse VmHWM %q: %w", v, err)
	}
	return kb / 1024, nil
}

// cpuModel names the processor from /proc/cpuinfo ("unknown" elsewhere).
func cpuModel() string {
	v, err := procField("/proc/cpuinfo", "model name")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(strings.TrimPrefix(v, ":"))
}

// procField returns the trimmed rest of the first line of path that starts
// with prefix.
func procField(path, prefix string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), prefix); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("%s: no %q line", path, prefix)
}
