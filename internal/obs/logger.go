package obs

import (
	"fmt"
	"io"
	"os"
	"sync"
)

// Logger is the harness-side diagnostics sink the reproduction
// commands share: every human-readable progress/status line goes
// through it (to stderr), keeping machine-readable stdout clean for
// tables and exports. It is goroutine-safe, so worker-pool progress
// lines never interleave mid-line, and honours a quiet flag so -q
// silences status without hiding errors.
type Logger struct {
	mu    sync.Mutex
	w     io.Writer
	tag   string
	quiet bool
}

// NewLogger creates a logger writing "tag: " prefixed lines to w
// (typically os.Stderr). quiet suppresses Statusf but never Errorf.
func NewLogger(w io.Writer, tag string, quiet bool) *Logger {
	return &Logger{w: w, tag: tag, quiet: quiet}
}

// Quiet reports whether status output is suppressed.
func (l *Logger) Quiet() bool { return l.quiet }

// Statusf logs a progress/status line unless the logger is quiet. Its
// signature matches the harness progress callbacks, so a method value
// (lg.Statusf) plugs directly into report.Options.Progress.
func (l *Logger) Statusf(format string, args ...interface{}) {
	if l.quiet {
		return
	}
	l.write(format, args...)
}

// Errorf logs an error line regardless of quiet.
func (l *Logger) Errorf(format string, args ...interface{}) {
	l.write(format, args...)
}

// Exitf logs an error line and exits with the given code.
func (l *Logger) Exitf(code int, format string, args ...interface{}) {
	l.Errorf(format, args...)
	os.Exit(code)
}

func (l *Logger) write(format string, args ...interface{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.tag != "" {
		fmt.Fprintf(l.w, "%s: ", l.tag)
	}
	fmt.Fprintf(l.w, format, args...)
	fmt.Fprintln(l.w)
}
