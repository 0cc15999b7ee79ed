package obsv

import (
	"fmt"
	"io"
	"log/slog"
	"math"
)

// NewLogger builds a process logger from the -log-level (debug|info|warn|
// error) and -log-format (text|json) flag values the daemons share.
func NewLogger(w io.Writer, level, format string) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("unknown -log-level %q (want debug|info|warn|error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want text|json)", format)
	}
}

// DiscardLogger records nothing: its level is above every record, so
// Enabled is false and call sites stay unconditional at no cost.
func DiscardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(math.MaxInt)}))
}
