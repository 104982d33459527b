package report

import (
	"fmt"
	"io"
	"time"

	"hamlet/internal/obs"
)

// This file is the error-budget read side: it turns a run directory's
// telemetry into SLO compliance. Two SLIs are supported — availability
// (non-5xx/4xx fraction) and latency (fraction of requests under an
// objective) — each judged against a target, with the verdict expressed as
// the fraction of the error budget the run consumed. When the run carries
// per-request events (http_request lines with status, duration, and
// timestamp), multi-window burn rates are computed the SRE way: a short
// window catches fast burn, a long one slow burn. A histograms-only run
// (the committed CI fixture) still answers the latency SLO — the quantile
// histogram is the SLI — it just cannot window it.

// DefaultSLOWindows are the burn-rate windows: 5m catches a fast burn that
// would torch the budget in hours, 1h a slow leak.
var DefaultSLOWindows = []time.Duration{5 * time.Minute, time.Hour}

// SLOOptions configures an SLO evaluation. A zero target disables that SLI.
type SLOOptions struct {
	// Availability is the availability target (0.999 = three nines).
	Availability float64
	// LatencyObjective and LatencyTarget define the latency SLO: at least
	// LatencyTarget of requests at or under LatencyObjective.
	LatencyObjective time.Duration
	LatencyTarget    float64
	// Windows are the burn-rate windows (nil = DefaultSLOWindows).
	Windows []time.Duration
}

// SLOWindow is one burn-rate window's view.
type SLOWindow struct {
	// Window is the window length, ending at the run's last request event.
	Window time.Duration
	// Requests and Bad count the window's requests and budget-burning ones.
	Requests, Bad int64
	// Burn is the error-budget burn rate: bad fraction over allowed
	// fraction. 1.0 spends the budget exactly at the SLO period's pace;
	// a sustained 14.4 torches a 30-day budget in 50 hours.
	Burn float64
}

// SLOResult is one SLI's verdict.
type SLOResult struct {
	// Name is the SLI ("availability" or "latency").
	Name string
	// Target is the configured objective fraction.
	Target float64
	// Objective is the latency bound (latency SLI only).
	Objective time.Duration
	// Source names the artifact the SLI was computed from ("" = no data).
	Source string
	// Requests and Bad count the whole run's requests and violations.
	Requests, Bad int64
	// Compliance is the good fraction over the whole run.
	Compliance float64
	// BudgetSpent is the fraction of the run's error budget consumed:
	// badFrac/(1−target). Over 1.0 the budget is exhausted.
	BudgetSpent float64
	// Windows holds burn rates when per-event data allowed windowing.
	Windows []SLOWindow
}

// Exhausted reports whether this SLI's error budget is spent.
func (res SLOResult) Exhausted() bool { return res.Source != "" && res.BudgetSpent > 1 }

// SLOReport is a run's verdict across the configured SLIs.
type SLOReport struct {
	// Results holds one entry per configured SLI, data or not.
	Results []SLOResult
}

// Exhausted reports whether any computed SLI overspent its budget.
func (rep *SLOReport) Exhausted() bool {
	for _, res := range rep.Results {
		if res.Exhausted() {
			return true
		}
	}
	return false
}

// Vacuous reports that no configured SLI could be computed — the run
// directory holds no evidence either way.
func (rep *SLOReport) Vacuous() bool {
	for _, res := range rep.Results {
		if res.Source != "" {
			return false
		}
	}
	return true
}

// sloEvent is one request observation distilled from an http_request event.
type sloEvent struct {
	at  time.Time
	bad bool // status >= 400 (availability) or over-objective (latency)
}

// SLO evaluates the configured SLOs against this run's artifacts. Per-event
// data (http_request events) is preferred — it answers both SLIs and the
// burn windows; without it the latency SLI falls back to the run-level
// quantile histogram and availability to the error counters in metrics.json
// (loadgen runs). An SLI with no usable source is returned with Source ""
// rather than dropped, so the render can say what is missing.
func (r *Run) SLO(opt SLOOptions) *SLOReport {
	if len(opt.Windows) == 0 {
		opt.Windows = DefaultSLOWindows
	}
	rep := &SLOReport{}
	if opt.Availability > 0 {
		rep.Results = append(rep.Results, r.sloAvailability(opt))
	}
	if opt.LatencyObjective > 0 && opt.LatencyTarget > 0 {
		rep.Results = append(rep.Results, r.sloLatency(opt))
	}
	return rep
}

// requestEvents distills the run's http_request events, classifying each by
// the given predicate.
func (r *Run) requestEvents(bad func(status int, dur time.Duration) bool) []sloEvent {
	var evs []sloEvent
	for _, ev := range r.Events {
		if ev.Msg != "http_request" || ev.Time.IsZero() {
			continue
		}
		status, ok := ev.Attrs["status"].(float64)
		if !ok {
			continue
		}
		durMS, _ := ev.Attrs["duration_ms"].(float64)
		evs = append(evs, sloEvent{
			at:  ev.Time,
			bad: bad(int(status), time.Duration(durMS*float64(time.Millisecond))),
		})
	}
	return evs
}

// finish computes the whole-run verdict and burn windows from events.
func finish(res SLOResult, evs []sloEvent, windows []time.Duration) SLOResult {
	var bad int64
	last := evs[0].at
	for _, e := range evs {
		if e.bad {
			bad++
		}
		if e.at.After(last) {
			last = e.at
		}
	}
	res.Requests, res.Bad = int64(len(evs)), bad
	res.Compliance = 1 - float64(bad)/float64(len(evs))
	res.BudgetSpent = burn(bad, int64(len(evs)), res.Target)
	for _, w := range windows {
		cutoff := last.Add(-w)
		var wreq, wbad int64
		for _, e := range evs {
			if e.at.Before(cutoff) {
				continue
			}
			wreq++
			if e.bad {
				wbad++
			}
		}
		res.Windows = append(res.Windows, SLOWindow{
			Window: w, Requests: wreq, Bad: wbad, Burn: burn(wbad, wreq, res.Target),
		})
	}
	return res
}

// burn is the error-budget burn rate: the bad fraction over the allowed
// fraction (0 when nothing was observed).
func burn(bad, total int64, target float64) float64 {
	if total == 0 {
		return 0
	}
	return (float64(bad) / float64(total)) / (1 - target)
}

// loadgen error-counter names in metrics.json — the availability fallback
// for client-side run dirs, which log no per-request events.
const (
	loadgenNon2xxCounter    = "loadgen.errors_non2xx"
	loadgenTransportCounter = "loadgen.errors_transport"
)

func (r *Run) sloAvailability(opt SLOOptions) SLOResult {
	res := SLOResult{Name: "availability", Target: opt.Availability}
	if evs := r.requestEvents(func(status int, _ time.Duration) bool {
		return status >= 400
	}); len(evs) > 0 {
		res.Source = obs.EventsFile
		return finish(res, evs, opt.Windows)
	}
	// Fallback: a loadgen run counts failures in metrics.json and every
	// attempt in the run-level latency histogram.
	h, ok := r.Histograms[obs.LatencyHist]
	if !ok || h.Count == 0 || r.Metrics == nil {
		return res
	}
	bad := int64(r.Metrics[loadgenNon2xxCounter] + r.Metrics[loadgenTransportCounter])
	res.Source = obs.MetricsFile
	res.Requests, res.Bad = h.Count, bad
	res.Compliance = 1 - float64(bad)/float64(h.Count)
	res.BudgetSpent = burn(bad, h.Count, res.Target)
	return res
}

func (r *Run) sloLatency(opt SLOOptions) SLOResult {
	res := SLOResult{Name: "latency", Target: opt.LatencyTarget, Objective: opt.LatencyObjective}
	if evs := r.requestEvents(func(_ int, dur time.Duration) bool {
		return dur > opt.LatencyObjective
	}); len(evs) > 0 {
		res.Source = obs.EventsFile
		return finish(res, evs, opt.Windows)
	}
	// Fallback: the run-level quantile histogram answers "what fraction ran
	// at or under the objective" without per-request data. CountAtOrBelow is
	// conservative (it may undercount good requests by one bucket), so the
	// gate errs toward failing, never toward passing.
	h, ok := r.Histograms[obs.LatencyHist]
	if !ok || h.Count == 0 {
		return res
	}
	good := h.CountAtOrBelow(opt.LatencyObjective.Nanoseconds())
	res.Source = obs.HistogramsFile
	res.Requests, res.Bad = h.Count, h.Count-good
	res.Compliance = float64(good) / float64(h.Count)
	res.BudgetSpent = burn(res.Bad, h.Count, res.Target)
	return res
}

// Write renders the report: one block per SLI with the whole-run verdict
// and any burn windows, then a single verdict line.
func (rep *SLOReport) Write(w io.Writer, dir string) {
	fmt.Fprintf(w, "slo %s\n", dir)
	for _, res := range rep.Results {
		if res.Source == "" {
			fmt.Fprintf(w, "%s: target %s — no data (need events.jsonl, or histograms.json for latency)\n",
				res.Name, pct(res.Target))
			continue
		}
		fmt.Fprintf(w, "%s: target %s", res.Name, pct(res.Target))
		if res.Objective > 0 {
			fmt.Fprintf(w, " under %v", res.Objective)
		}
		fmt.Fprintf(w, " — %d requests, %d bad — compliance %s — budget spent %.1f%% (from %s)\n",
			res.Requests, res.Bad, pct(res.Compliance), 100*res.BudgetSpent, res.Source)
		for _, win := range res.Windows {
			fmt.Fprintf(w, "  burn %v: %.2fx (%d/%d bad)\n", win.Window, win.Burn, win.Bad, win.Requests)
		}
	}
	switch {
	case rep.Vacuous():
		fmt.Fprintln(w, "verdict: no data")
	case rep.Exhausted():
		names := ""
		for _, res := range rep.Results {
			if res.Exhausted() {
				if names != "" {
					names += ", "
				}
				names += res.Name
			}
		}
		fmt.Fprintf(w, "verdict: BUDGET EXHAUSTED (%s)\n", names)
	default:
		fmt.Fprintln(w, "verdict: within budget")
	}
}

// pct renders a fraction as a percentage without trailing-zero noise.
func pct(f float64) string {
	s := fmt.Sprintf("%.4f", 100*f)
	for len(s) > 0 && s[len(s)-1] == '0' {
		s = s[:len(s)-1]
	}
	if len(s) > 0 && s[len(s)-1] == '.' {
		s = s[:len(s)-1]
	}
	return s + "%"
}
