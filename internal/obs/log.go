package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"helios/internal/clock"
)

// Logger is the structured logger the Helios binaries emit operational
// events through: a slog.JSONHandler that writes one JSON object per line,
// stamped with the component, the pipeline stage and the request's trace
// ID — the same trace ID the metrics exemplars and /traces carry, so
// logs, metrics and traces join on one key:
//
//	{"ts":"...","level":"warn","component":"frontend",
//	 "stage":"frontend.sample","trace":"9f02ab31c77d10e4",
//	 "msg":"slow sample","total_ms":412}
//
// Logging is not a hot-path facility: components log errors, shed
// decisions and slow requests, not per-request chatter. All methods are
// safe for concurrent use and are no-ops on a nil *Logger, so call sites
// never branch on whether logging is wired.
type Logger struct {
	mu  sync.Mutex // serializes a line's write and its tail entry
	h   slog.Handler
	clk clock.Clock
	min slog.LevelVar

	// tail retains the most recent emitted lines when KeepTail enabled
	// it — the slow-log excerpt telemetry snapshots and flight-recorder
	// captures carry.
	tail    []string
	tailCap int
}

// Level orders log severities: slog's, so a line's level reads the same
// to any slog consumer.
type Level = slog.Level

// Levels, least to most severe.
const (
	LevelDebug = slog.LevelDebug
	LevelInfo  = slog.LevelInfo
	LevelWarn  = slog.LevelWarn
	LevelError = slog.LevelError
)

// ParseLevel maps a level name ("debug", "info", "warn", "error", in any
// case, as slog parses them) to its Level; unrecognized names report
// ok=false. It is the shared -log-level
// flag parser for the binaries.
func ParseLevel(s string) (Level, bool) {
	var lv Level
	return lv, lv.UnmarshalText([]byte(s)) == nil
}

// NewLogger returns a logger writing JSON lines to w (os.Stderr when nil)
// tagged with the given component name. The default minimum level is
// Info.
func NewLogger(w io.Writer, component string) *Logger {
	if w == nil {
		w = os.Stderr
	}
	l := &Logger{}
	l.h = slog.NewJSONHandler(tailWriter{w, l}, &slog.HandlerOptions{ReplaceAttr: replaceAttr}).
		WithAttrs([]slog.Attr{slog.String("component", component)})
	return l
}

// replaceAttr shapes slog's line into the Helios one: the built-in time
// becomes "ts" with nanoseconds, the level is lowercase, the built-in
// message is dropped (emit leaves it empty and passes msg as the
// attribute after trace), and durations are strings.
func replaceAttr(_ []string, a slog.Attr) slog.Attr {
	switch v := a.Value; {
	case a.Key == slog.TimeKey && v.Kind() == slog.KindTime:
		return slog.String("ts", v.Time().Format(time.RFC3339Nano))
	case a.Key == slog.LevelKey:
		return slog.String(a.Key, strings.ToLower(v.String()))
	case a.Equal(slog.String(slog.MessageKey, "")):
		return slog.Attr{}
	case v.Kind() == slog.KindDuration:
		return slog.String(a.Key, v.Duration().String())
	}
	return a
}

// tailWriter is the handler's sink, written once per line under l.mu
// (emit holds it): it keeps the line when KeepTail asked for it.
type tailWriter struct {
	w io.Writer
	l *Logger
}

func (t tailWriter) Write(line []byte) (int, error) {
	if l := t.l; l.tailCap > 0 {
		l.tail = append(l.tail, string(line[:len(line)-1]))
		if len(l.tail) > l.tailCap {
			copy(l.tail, l.tail[len(l.tail)-l.tailCap:])
			l.tail = l.tail[:l.tailCap]
		}
	}
	return t.w.Write(line)
}

// WithClock sets the timestamp source, returning l for chaining. Tests
// inject a fake clock for deterministic "ts" fields.
func (l *Logger) WithClock(clk clock.Clock) *Logger {
	if l != nil && clk != nil {
		l.mu.Lock()
		l.clk = clk
		l.mu.Unlock()
	}
	return l
}

// KeepTail retains the most recent n emitted lines in memory (0 turns
// retention off), returning l for chaining. The tail is how a process's
// recent slow-log lines outlive it: telemetry reporters ship it with
// every snapshot, and flight-recorder captures persist it.
func (l *Logger) KeepTail(n int) *Logger {
	if l != nil {
		l.mu.Lock()
		l.tailCap = n
		if n <= 0 {
			l.tail = nil
		} else if len(l.tail) > n {
			l.tail = append([]string(nil), l.tail[len(l.tail)-n:]...)
		}
		l.mu.Unlock()
	}
	return l
}

// Tail returns a copy of the retained recent lines, oldest first. Nil
// when KeepTail was never enabled (or on a nil logger).
func (l *Logger) Tail() []string {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.tail) == 0 {
		return nil
	}
	return append([]string(nil), l.tail...)
}

// SetLevel sets the minimum emitted level.
func (l *Logger) SetLevel(min Level) {
	if l != nil {
		l.min.Set(min)
	}
}

// Enabled reports whether lines at lv would be emitted — the guard for
// call sites that would otherwise format arguments for a dropped line.
func (l *Logger) Enabled(lv Level) bool {
	return l != nil && lv >= l.min.Level()
}

// Debug emits a debug line. See Info for the field contract.
func (l *Logger) Debug(trace uint64, stage, msg string, kv ...any) {
	l.emit(LevelDebug, trace, stage, msg, kv)
}

// Info emits an info line. trace is the request's trace ID (0 for
// untraced work — still stamped, as "0", so every line parses the same
// way); stage names the pipeline stage the event belongs to; kv are
// alternating key, value pairs appended as extra JSON fields, under keys
// other than the line's own.
func (l *Logger) Info(trace uint64, stage, msg string, kv ...any) {
	l.emit(LevelInfo, trace, stage, msg, kv)
}

// Warn emits a warning line. See Info for the field contract.
func (l *Logger) Warn(trace uint64, stage, msg string, kv ...any) {
	l.emit(LevelWarn, trace, stage, msg, kv)
}

// Error emits an error line. See Info for the field contract.
func (l *Logger) Error(trace uint64, stage, msg string, kv ...any) {
	l.emit(LevelError, trace, stage, msg, kv)
}

func (l *Logger) emit(lv Level, trace uint64, stage, msg string, kv []any) {
	if !l.Enabled(lv) {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	now := time.Now()
	if l.clk != nil {
		now = l.clk.Now()
	}
	r := slog.NewRecord(now, lv, "", 0)
	r.AddAttrs(slog.String("stage", stage), slog.String("trace", TraceHex(trace)), slog.String("msg", msg))
	for i := 0; i+1 < len(kv); i += 2 {
		key, ok := kv[i].(string)
		if !ok {
			key = fmt.Sprint(kv[i])
		}
		r.AddAttrs(slog.Any(key, kv[i+1]))
	}
	// Handle fails only when the sink does, and a lost log line is not
	// actionable at the call site.
	l.h.Handle(context.Background(), r)
}

// TraceHex renders a trace ID the way log lines, exemplars and trace URLs
// do, so correlation greps share one spelling.
func TraceHex(trace uint64) string { return strconv.FormatUint(trace, 16) }
