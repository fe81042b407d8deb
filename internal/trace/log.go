package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"
)

// Structured logging that joins log lines to the flight recorder:
// every line carries its component and fields plus the trace id of the
// epoch in flight (Default.CurrentTrace), so a slow line in the log
// can be looked up as a waterfall in /v1/tracez.
//
// Routing contract (pinned by a cmd/gpsd test): Info goes to os.Stdout,
// Warn and Error to os.Stderr, each read at emit time. Text mode
// emits logfmt-style key=value lines; SetLogJSON(true) switches every
// line to a single JSON object.

// Level is a log severity.
type Level int8

// Severity levels, in increasing order.
const (
	LevelInfo Level = iota
	LevelWarn
	LevelError
)

// String returns the lowercase level name used in the level= field.
func (l Level) String() string {
	switch l {
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	default:
		return "info"
	}
}

var (
	logMu   sync.Mutex
	logJSON bool
)

// SetLogJSON switches all loggers between logfmt text (false) and
// one-JSON-object-per-line (true).
func SetLogJSON(on bool) {
	logMu.Lock()
	logJSON = on
	logMu.Unlock()
}

// Logger emits leveled structured lines tagged with a component.
type Logger struct {
	component string
}

// NewLogger builds a logger for one component ("gpsd", "transport",
// "cluster", ...).
func NewLogger(component string) *Logger {
	return &Logger{component: component}
}

// Infof logs at info level (stdout).
func (l *Logger) Infof(format string, args ...any) { l.logf(LevelInfo, format, args...) }

// Warnf logs at warn level (stderr).
func (l *Logger) Warnf(format string, args ...any) { l.logf(LevelWarn, format, args...) }

// Errorf logs at error level (stderr).
func (l *Logger) Errorf(format string, args ...any) { l.logf(LevelError, format, args...) }

// Log emits a message with per-line fields. Under SetLogJSON(true) a
// field built by Int, Int64 or Float is a JSON number, any other a JSON
// string.
func (l *Logger) Log(level Level, msg string, fields ...Attr) {
	l.emit(level, msg, fields)
}

func (l *Logger) logf(level Level, format string, args ...any) {
	l.emit(level, fmt.Sprintf(format, args...), nil)
}

// TraceID returns the current trace id formatted for a trace= field,
// or "" when no trace is in flight.
func TraceID(id uint64) string {
	if id == 0 {
		return ""
	}
	return fmt.Sprintf("%016x", id)
}

func (l *Logger) emit(level Level, msg string, fields []Attr) {
	traceID := TraceID(Default.CurrentTrace())
	now := time.Now().UTC().Format(time.RFC3339Nano)

	logMu.Lock()
	defer logMu.Unlock()
	w := os.Stdout
	if level >= LevelWarn {
		w = os.Stderr
	}
	if logJSON {
		obj := make(map[string]any, len(fields)+5)
		for _, a := range fields {
			if a.num {
				obj[a.Key] = json.Number(a.Value)
			} else {
				obj[a.Key] = a.Value
			}
		}
		obj["ts"] = now
		obj["level"] = level.String()
		obj["component"] = l.component
		if traceID != "" {
			obj["trace"] = traceID
		}
		obj["msg"] = msg
		line, err := json.Marshal(obj)
		if err != nil {
			return
		}
		fmt.Fprintf(w, "%s\n", line)
		return
	}
	var b strings.Builder
	b.WriteString("ts=")
	b.WriteString(now)
	b.WriteString(" level=")
	b.WriteString(level.String())
	b.WriteString(" component=")
	b.WriteString(l.component)
	if traceID != "" {
		b.WriteString(" trace=")
		b.WriteString(traceID)
	}
	for _, a := range fields {
		writeField(&b, a)
	}
	b.WriteString(" msg=")
	writeValue(&b, msg)
	b.WriteByte('\n')
	io.WriteString(w, b.String())
}

func writeField(b *strings.Builder, a Attr) {
	b.WriteByte(' ')
	b.WriteString(a.Key)
	b.WriteByte('=')
	writeValue(b, a.Value)
}

func writeValue(b *strings.Builder, v string) {
	if v == "" || strings.ContainsAny(v, " \t\n\"=") {
		fmt.Fprintf(b, "%q", v)
		return
	}
	b.WriteString(v)
}
