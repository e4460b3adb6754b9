package obs

import (
	"fmt"
	"io"
	"log/slog"
)

// NewLogger returns the shared CLI logger used by cmd/borg, cmd/borgd,
// cmd/borgexp and the examples: leveled slog with key=value text output
// (machine-parseable, one event per line). verbose lowers the level to
// Debug — the cmds' -v flag.
func NewLogger(w io.Writer, verbose bool) *slog.Logger {
	lvl := slog.LevelInfo
	if verbose {
		lvl = slog.LevelDebug
	}
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: lvl}))
}

// Logf adapts a slog.Logger to the printf-style Logf callbacks on
// DistributedConfig and WorkerConfig, logging at Info level.
func Logf(l *slog.Logger) func(format string, args ...any) {
	return func(format string, args ...any) {
		l.Info(fmt.Sprintf(format, args...))
	}
}
