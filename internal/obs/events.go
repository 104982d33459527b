package obs

import (
	"context"
	"io"
	"log/slog"
	"time"
)

// EventLog is the persisted half of the observability layer: a structured
// JSONL event stream built on log/slog's JSON handler. Where spans and the
// metrics registry die with the process, an EventLog records what a run did
// — run boundaries, progress milestones, experiment results — as one
// self-describing JSON object per line, so the trajectory of a Monte Carlo
// campaign can be replayed, diffed, and audited after the fact. The span
// tree is not repeated here: RunDir.Close persists it once, as trace.json.
//
// Schema: every line has "time" (RFC 3339 with sub-second precision),
// "msg" (the event kind), and "v" (the artifact SchemaVersion); the
// remaining keys are per-kind attributes. Kinds emitted by this package:
//
//	run_start   tool, commit (when stamped)
//	progress    label, done, total
//	run_end     ok, duration_ms, error (when failed)
//
// CLIs add their own kinds (e.g. "decision", "analyze", "experiment") via
// Emit. All methods no-op on a nil receiver, so library code holds an
// *EventLog unconditionally; writes are serialized by the slog handler.
type EventLog struct {
	log *slog.Logger
}

// NewEventLog returns an event log writing JSONL to w. The caller owns w
// (an EventLog never closes it).
func NewEventLog(w io.Writer) *EventLog { return newEventLog(w, nil) }

// newEventLog is the test seam: a non-nil fixed time replaces the wall
// clock on every line, making the byte stream deterministic (golden files).
func newEventLog(w io.Writer, fixed *time.Time) *EventLog {
	opts := &slog.HandlerOptions{
		ReplaceAttr: func(groups []string, a slog.Attr) slog.Attr {
			if len(groups) > 0 {
				return a
			}
			switch a.Key {
			case slog.LevelKey:
				return slog.Attr{} // every event is informational; drop the key
			case slog.TimeKey:
				if fixed != nil {
					return slog.Time(slog.TimeKey, *fixed)
				}
			}
			return a
		},
	}
	// The version stamp rides on the logger, not on each Emit call, so every
	// line — including CLI-emitted custom kinds — carries it right after msg.
	return &EventLog{log: slog.New(slog.NewJSONHandler(w, opts)).With(slog.Int("v", SchemaVersion))}
}

// Emit writes one event of the given kind with the given attributes.
func (l *EventLog) Emit(kind string, attrs ...slog.Attr) {
	if l == nil {
		return
	}
	l.log.LogAttrs(context.Background(), slog.LevelInfo, kind, attrs...)
}

// RunStart records the beginning of a run described by info.
func (l *EventLog) RunStart(info *RunInfo) {
	if l == nil {
		return
	}
	attrs := []slog.Attr{slog.String("tool", info.Tool)}
	if info.Commit != "" {
		attrs = append(attrs, slog.String("commit", info.Commit))
	}
	l.Emit("run_start", attrs...)
}

// RunEnd records the end of a run: its outcome and total duration.
func (l *EventLog) RunEnd(runErr error, elapsed time.Duration) {
	if l == nil {
		return
	}
	attrs := []slog.Attr{
		slog.Bool("ok", runErr == nil),
		slog.Float64("duration_ms", durationMS(elapsed)),
	}
	if runErr != nil {
		attrs = append(attrs, slog.String("error", runErr.Error()))
	}
	l.Emit("run_end", attrs...)
}

// Progress records one progress milestone (total may be 0 when unknown).
func (l *EventLog) Progress(label string, done, total int64) {
	if l == nil {
		return
	}
	l.Emit("progress",
		slog.String("label", label),
		slog.Int64("done", done),
		slog.Int64("total", total),
	)
}

// durationMS renders a duration as fractional milliseconds, the unit used
// across the JSON artifacts (span trace, events).
func durationMS(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}
