package serve

import (
	"encoding/hex"
	"net/http"
	"time"
	"unicode/utf8"

	"srvsim/internal/harness"
	"srvsim/internal/obsv"
)

// CachedReply is a done status answered from a ResultCache — what
// CachedStatus describes — in the pieces AppendCachedStatus renders, so a
// hit writes stored bytes instead of encoding a JobStatus.
type CachedReply struct {
	Key string
	// ModeBench is the reply's "mode" and "bench" lines (AppendModeBench);
	// nil renders an empty mode and no bench, a status no request named.
	ModeBench []byte
	// Trace is the reply's trace_id; zero omits it.
	Trace        obsv.TraceID
	Node, Tenant string
	// Result is the rendered result a ResultCache holds; empty omits it.
	Result []byte
}

// AppendModeBench appends a JobStatus's "mode" and "bench" lines as
// WriteJSON indents them, bench omitted when empty.
func AppendModeBench(dst []byte, mode harness.Mode, bench string) []byte {
	dst = append(dst, `  "mode": `...)
	dst = appendJSONString(dst, string(mode))
	dst = append(dst, ",\n"...)
	if bench != "" {
		dst = append(dst, `  "bench": `...)
		dst = appendJSONString(dst, bench)
		dst = append(dst, ",\n"...)
	}
	return dst
}

// AppendCachedStatus appends, byte for byte, the body WriteJSON writes for
// CachedStatus(h.Key, result, now) stamped with h's mode, bench, trace,
// node and tenant, trailing newline included.
func AppendCachedStatus(dst []byte, h CachedReply, now time.Time) []byte {
	dst = append(dst, "{\n  \"id\": "...)
	dst = appendJSONString(dst, h.Key)
	dst = append(dst, ",\n  \"state\": \"done\",\n"...)
	if h.ModeBench == nil {
		dst = AppendModeBench(dst, "", "")
	}
	dst = append(dst, h.ModeBench...)
	dst = append(dst, `  "cache_key": `...)
	dst = appendJSONString(dst, h.Key)
	dst = append(dst, ",\n  \"cached\": true,\n"...)
	if !h.Trace.IsZero() {
		dst = append(dst, `  "trace_id": "`...)
		dst = hex.AppendEncode(dst, h.Trace[:])
		dst = append(dst, "\",\n"...)
	}
	if h.Node != "" {
		dst = append(dst, `  "node": `...)
		dst = appendJSONString(dst, h.Node)
		dst = append(dst, ",\n"...)
	}
	if h.Tenant != "" {
		dst = append(dst, `  "tenant": `...)
		dst = appendJSONString(dst, h.Tenant)
		dst = append(dst, ",\n"...)
	}
	// The three timestamps are one instant: format it once, copy it twice.
	dst = append(dst, `  "submitted_at": "`...)
	at := len(dst)
	dst = now.AppendFormat(dst, time.RFC3339Nano)
	stamp := dst[at:]
	dst = append(dst, "\",\n  \"started_at\": \""...)
	dst = append(dst, stamp...)
	dst = append(dst, "\",\n  \"finished_at\": \""...)
	dst = append(dst, stamp...)
	dst = append(dst, '"')
	if len(h.Result) > 0 {
		dst = append(dst, ",\n  \"result\": "...)
		dst = append(dst, h.Result...)
	}
	return append(dst, "\n}\n"...)
}

// WriteCachedStatus answers 200 with h's cached status, built in one buffer
// and written at once: the hit path's replacement for
// WriteJSON(w, http.StatusOK, CachedStatus(...)), with the same bytes.
func WriteCachedStatus(w http.ResponseWriter, h CachedReply, now time.Time) {
	// 384 bytes cover the field names, the trace ID and the three stamps;
	// the variable parts are added on top.
	buf := make([]byte, 0, 384+2*len(h.Key)+len(h.ModeBench)+len(h.Node)+len(h.Tenant)+len(h.Result))
	buf = AppendCachedStatus(buf, h, now)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf)
}

// appendJSONString appends s as encoding/json encodes a string with HTML
// escaping on (its default): control characters, quote, backslash, <, >
// and &, U+2028 and U+2029 escaped, invalid UTF-8 replaced by U+FFFD.
func appendJSONString(dst []byte, s string) []byte {
	const hexDigits = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
