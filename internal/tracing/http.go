package tracing

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"time"
)

// Middleware wraps an HTTP handler with the per-request server span: a
// continuation of the caller's traceparent when one arrives, a fresh root
// otherwise. Stacks with the metrics middleware; on an unrecorded request
// the only cost is the sampling check in StartRequest. With a slow
// threshold configured, a request exceeding it is committed to the ring
// regardless of sampling and logged through slog with its trace ID.
func (t *Tracer) Middleware(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, span := t.StartRequest(r.Context(), route, r.Header.Get(Header))
		if span == nil {
			h(w, r)
			return
		}
		rec := &StatusRecorder{ResponseWriter: w}
		h(rec, r.WithContext(ctx))
		status := rec.Status()
		span.SetAttr("http.method", r.Method)
		span.SetAttr("http.status", status)
		dur := span.End()
		if slow := t.SlowThreshold(); slow > 0 && dur >= slow {
			slog.Warn("slow request",
				"route", route,
				"method", r.Method,
				"status", status,
				"duration", dur,
				"trace_id", span.TraceID().String(),
				"span_id", span.SpanID().String(),
			)
		}
	}
}

// StatusRecorder is the one ResponseWriter wrapper of the HTTP
// middleware stacks: it captures the response status for spans and
// status-class counters. It implements Flusher unconditionally, so SSE
// handlers (/watch, /wal/stream) that type-assert their writer keep
// streaming through it, and forwards Hijacker and ReaderFrom to the
// underlying writer when it supports them (connection takeover and
// sendfile keep working behind the middleware).
type StatusRecorder struct {
	http.ResponseWriter
	status int
}

// Status returns the status the handler sent, or 200 when it wrote
// nothing: net/http's implicit status.
func (r *StatusRecorder) Status() int {
	if r.status == 0 {
		return http.StatusOK
	}
	return r.status
}

func (r *StatusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *StatusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

func (r *StatusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (r *StatusRecorder) Hijack() (net.Conn, *bufio.ReadWriter, error) {
	if hj, ok := r.ResponseWriter.(http.Hijacker); ok {
		return hj.Hijack()
	}
	return nil, nil, fmt.Errorf("tracing: underlying ResponseWriter does not support hijacking")
}

func (r *StatusRecorder) ReadFrom(src io.Reader) (int64, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	if rf, ok := r.ResponseWriter.(io.ReaderFrom); ok {
		return rf.ReadFrom(src)
	}
	// Strip ReadFrom from the copy destination or io.Copy would recurse
	// right back into this method.
	return io.Copy(struct{ io.Writer }{r.ResponseWriter}, src)
}

// RegisterDebug mounts GET /debug/traces and GET /debug/traces/{id} on an
// admin mux, alongside /metrics and /debug/pprof.
func (t *Tracer) RegisterDebug(mux *http.ServeMux) {
	mux.HandleFunc("GET /debug/traces", t.handleTraces)
	mux.HandleFunc("GET /debug/traces/{id}", t.handleTraceByID)
}

// traceSummaryJSON is one entry of the GET /debug/traces listing.
type traceSummaryJSON struct {
	TraceID    string  `json:"trace_id"`
	Service    string  `json:"service"`
	Root       string  `json:"root"`
	Start      string  `json:"start"`
	DurationMS float64 `json:"duration_ms"`
	Spans      int     `json:"spans"`
	Sampled    bool    `json:"sampled"`
}

// spanJSON is one span of the GET /debug/traces/{id} detail.
type spanJSON struct {
	TraceID       string         `json:"trace_id"`
	SpanID        string         `json:"span_id"`
	ParentID      string         `json:"parent_id,omitempty"`
	Service       string         `json:"service"`
	Name          string         `json:"name"`
	StartUnixNano int64          `json:"start_unix_nano"`
	DurationUS    float64        `json:"duration_us"`
	Attrs         map[string]any `json:"attrs,omitempty"`
	Notes         []string       `json:"notes,omitempty"`
}

func (t *Tracer) handleTraces(w http.ResponseWriter, r *http.Request) {
	service := t.Service()
	traces := t.ring.snapshot()
	out := make([]traceSummaryJSON, 0, len(traces))
	for _, tr := range traces {
		tr.mu.Lock()
		entry := traceSummaryJSON{
			TraceID: tr.id.String(),
			Service: service,
			Spans:   len(tr.spans),
			Sampled: tr.sampled,
		}
		if len(tr.spans) > 0 {
			root := tr.spans[0]
			entry.Root = root.name
			entry.Start = root.start.UTC().Format(time.RFC3339Nano)
			if !root.end.IsZero() {
				entry.DurationMS = float64(root.end.Sub(root.start)) / float64(time.Millisecond)
			}
		}
		tr.mu.Unlock()
		out = append(out, entry)
	}
	writeJSON(w, out)
}

func (t *Tracer) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	id, err := ParseTraceID(r.PathValue("id"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// A process can hold several committed span sets for one trace ID
	// (e.g. the /observe and /tick legs of one gateway write); the detail
	// view merges them into a single span list.
	traces := t.ring.byID(id)
	if len(traces) == 0 {
		http.Error(w, "trace not found", http.StatusNotFound)
		return
	}
	service := t.Service()
	var spans []spanJSON
	for _, tr := range traces {
		tr.mu.Lock()
		for _, s := range tr.spans {
			sj := spanJSON{
				TraceID:       tr.id.String(),
				SpanID:        s.id.String(),
				Service:       service,
				Name:          s.name,
				StartUnixNano: s.start.UnixNano(),
			}
			if !s.parent.IsZero() {
				sj.ParentID = s.parent.String()
			}
			if !s.end.IsZero() {
				sj.DurationUS = float64(s.end.Sub(s.start)) / float64(time.Microsecond)
			}
			if len(s.attrs) > 0 {
				sj.Attrs = make(map[string]any, len(s.attrs))
				for _, a := range s.attrs {
					sj.Attrs[a.Key] = a.Value
				}
			}
			if len(s.notes) > 0 {
				sj.Notes = append([]string(nil), s.notes...)
			}
			spans = append(spans, sj)
		}
		tr.mu.Unlock()
	}
	writeJSON(w, struct {
		TraceID string     `json:"trace_id"`
		Spans   []spanJSON `json:"spans"`
	}{id.String(), spans})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
