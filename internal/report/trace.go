package report

import (
	"fmt"
	"io"
	"regexp"
	"sort"
	"strings"
	"time"

	"hamlet/internal/obs"
)

// This file turns a persisted span tree into a profile: where the run's
// wall clock actually went. Spans are aggregated by *generalized path* —
// the slash path from the root with volatile numerics collapsed
// ("world[3]" -> "world[*]", "n_S=100" -> "n_S=*") — so the 24 per-config
// Monte Carlo subtrees of an experiment fold into one line instead of 24.

// Profile is the aggregated view of one run's span tree.
type Profile struct {
	// Root is the root span's name; RootMS its wall-clock duration.
	Root   string
	RootMS float64
	// Spans counts every node in the tree.
	Spans int
	// Paths holds the per-generalized-path aggregates, sorted by self time
	// (descending) — the profile's "where does time go" answer.
	Paths []PathStat
	// Hot is the critical path: from the root, each level's
	// longest-duration child. In a sequential run it is the chain of
	// stages that dominated the wall clock.
	Hot []HotStep
	// Counters are the tree-wide counter rollups, sorted by name. A span's
	// counter is counted only when no ancestor carries the same counter
	// name, so parent aggregates (biasvar's models_trained) are not
	// double-counted with their children's.
	Counters []CounterTotal
	// Util summarizes worker parallelism from leaf-span wall-clock overlap
	// (nil when the tree carries no start times).
	Util *Utilization
}

// PathStat aggregates every span sharing one generalized path.
type PathStat struct {
	// Path is the generalized slash path from the root.
	Path string
	// Count is the number of spans folded into this path.
	Count int
	// TotalMS sums the spans' durations; SelfMS subtracts each span's
	// children, clamped at zero, so in a sequential run the SelfMS column
	// sums to the root duration.
	TotalMS, SelfMS float64
}

// HotStep is one level of the critical path.
type HotStep struct {
	// Name is the span's raw (un-generalized) name.
	Name string
	// DurationMS is its duration; FracRoot its share of the root's.
	DurationMS float64
	FracRoot   float64
}

// CounterTotal is one rolled-up counter.
type CounterTotal struct {
	Name  string
	Total int64
}

// Utilization summarizes worker parallelism: how much leaf work the run
// packed into its wall clock.
type Utilization struct {
	// WallMS is the root span's duration; BusyMS the summed durations of
	// every leaf span.
	WallMS, BusyMS float64
	// Avg is BusyMS/WallMS — the average number of concurrently busy
	// workers. Peak is the maximum number of leaf spans open at once.
	Avg  float64
	Peak int
	// Leaves counts the leaf spans measured.
	Leaves int
}

var (
	idxPattern = regexp.MustCompile(`\[\d+\]`)
	eqPattern  = regexp.MustCompile(`=\s*-?\d+(\.\d+)?`)
)

// generalize collapses volatile numerics out of a span name so repeated
// per-index and per-config spans aggregate onto one path.
func generalize(name string) string {
	name = idxPattern.ReplaceAllString(name, "[*]")
	return eqPattern.ReplaceAllString(name, "=*")
}

// NewProfile aggregates a span tree into a Profile. A nil root yields nil.
func NewProfile(root *obs.SpanRecord) *Profile {
	if root == nil {
		return nil
	}
	p := &Profile{Root: root.Name, RootMS: root.DurationMS}
	agg := make(map[string]*PathStat)
	var order []string
	var leaves []*obs.SpanRecord
	var walk func(s *obs.SpanRecord, path string, ancestors map[string]bool)
	walk = func(s *obs.SpanRecord, path string, ancestors map[string]bool) {
		p.Spans++
		st := agg[path]
		if st == nil {
			st = &PathStat{Path: path}
			agg[path] = st
			order = append(order, path)
		}
		childMS := 0.0
		for _, c := range s.Children {
			childMS += c.DurationMS
		}
		st.Count++
		st.TotalMS += s.DurationMS
		st.SelfMS += max(0, s.DurationMS-childMS)
		// Counter rollup: only the topmost span carrying a name counts.
		added := make([]string, 0, len(s.Counters))
		for name, v := range s.Counters {
			if ancestors[name] {
				continue
			}
			p.addCounter(name, v)
			ancestors[name] = true
			added = append(added, name)
		}
		if len(s.Children) == 0 {
			leaves = append(leaves, s)
		}
		for _, c := range s.Children {
			walk(c, path+"/"+generalize(c.Name), ancestors)
		}
		for _, name := range added {
			delete(ancestors, name)
		}
	}
	walk(root, generalize(root.Name), make(map[string]bool))

	p.Paths = make([]PathStat, 0, len(order))
	for _, path := range order {
		p.Paths = append(p.Paths, *agg[path])
	}
	sort.SliceStable(p.Paths, func(i, j int) bool { return p.Paths[i].SelfMS > p.Paths[j].SelfMS })
	sort.Slice(p.Counters, func(i, j int) bool { return p.Counters[i].Name < p.Counters[j].Name })

	for s := root; s != nil; {
		frac := 0.0
		if root.DurationMS > 0 {
			frac = s.DurationMS / root.DurationMS
		}
		p.Hot = append(p.Hot, HotStep{Name: s.Name, DurationMS: s.DurationMS, FracRoot: frac})
		var next *obs.SpanRecord
		for _, c := range s.Children {
			if next == nil || c.DurationMS > next.DurationMS {
				next = c
			}
		}
		s = next
	}

	p.Util = utilization(root, leaves)
	return p
}

// addCounter accumulates one rolled-up counter by name.
func (p *Profile) addCounter(name string, v int64) {
	for i := range p.Counters {
		if p.Counters[i].Name == name {
			p.Counters[i].Total += v
			return
		}
	}
	p.Counters = append(p.Counters, CounterTotal{Name: name, Total: v})
}

// utilization sweeps the leaf spans' wall-clock intervals. Trees without
// start times yield nil.
func utilization(root *obs.SpanRecord, leaves []*obs.SpanRecord) *Utilization {
	if root.DurationMS <= 0 || len(leaves) == 0 {
		return nil
	}
	type edge struct {
		at    time.Time
		delta int
	}
	var (
		edges []edge
		busy  float64
	)
	for _, l := range leaves {
		if l.Start.IsZero() {
			return nil
		}
		busy += l.DurationMS
		end := l.Start.Add(time.Duration(l.DurationMS * float64(time.Millisecond)))
		edges = append(edges, edge{l.Start, +1}, edge{end, -1})
	}
	sort.Slice(edges, func(i, j int) bool {
		if !edges[i].at.Equal(edges[j].at) {
			return edges[i].at.Before(edges[j].at)
		}
		return edges[i].delta < edges[j].delta // close before open at a tie
	})
	open, peak := 0, 0
	for _, e := range edges {
		open += e.delta
		if open > peak {
			peak = open
		}
	}
	return &Utilization{
		WallMS: root.DurationMS,
		BusyMS: busy,
		Avg:    busy / root.DurationMS,
		Peak:   peak,
		Leaves: len(leaves),
	}
}

// WriteFolded renders the profile as folded stacks — one line per
// generalized path, frames joined by ';' with the path's self time in
// integer microseconds — the input format flamegraph.pl and speedscope
// consume directly:
//
//	report trace -folded rundir | flamegraph.pl > profile.svg
//
// Spaces inside frame names become underscores (the format reserves the
// space as the frame/value separator). Paths with zero self time after
// rounding are omitted: they would render as zero-width frames.
func (p *Profile) WriteFolded(w io.Writer) error {
	for _, ps := range p.Paths {
		us := int64(ps.SelfMS*1000 + 0.5)
		if us == 0 {
			continue
		}
		stack := strings.ReplaceAll(strings.ReplaceAll(ps.Path, " ", "_"), "/", ";")
		if _, err := fmt.Fprintf(w, "%s %d\n", stack, us); err != nil {
			return err
		}
	}
	return nil
}

// String renders the profile compactly for logs and tests; cmd/report does
// its own richer rendering.
func (p *Profile) String() string {
	if p == nil {
		return ""
	}
	return fmt.Sprintf("profile(%s %.1fms, %d spans, %d paths)", p.Root, p.RootMS, p.Spans, len(p.Paths))
}
