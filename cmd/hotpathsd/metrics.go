package main

import (
	"net/http"
	"net/http/pprof"
	"time"

	"hotpaths/internal/flightrec"
	"hotpaths/internal/metrics"
	"hotpaths/internal/tracing"
)

// adminHandler is the -pprof listener's mux: the profiling endpoints, a
// second /metrics mount, the completed-trace ring under /debug/traces,
// and the flight-recorder ring under /debug/events — all kept off the
// public port so the debug surface is opt-in and never internet-facing
// by accident.
func adminHandler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", metrics.Handler())
	tracing.Default.RegisterDebug(mux)
	flightrec.Default.RegisterDebug(mux)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// statusClasses are the buckets the per-route request counters use; a
// class per status keeps cardinality at five per route instead of one per
// code.
var statusClasses = [5]string{"1xx", "2xx", "3xx", "4xx", "5xx"}

// instrument wraps one route's handler with a request-duration histogram
// and status-class counters. Instruments are registered at wrap time —
// route patterns are static — so the request path touches only atomics,
// never the registry lock.
func instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	hist := metrics.Default.Histogram("hotpaths_http_request_seconds",
		"HTTP request duration by route.",
		metrics.LatencyBuckets, metrics.Labels{"route": route})
	var counts [5]*metrics.Counter
	for i, class := range statusClasses {
		counts[i] = metrics.Default.Counter("hotpaths_http_requests_total",
			"HTTP requests by route and status class.",
			metrics.Labels{"route": route, "code": class})
	}
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		rec := &tracing.StatusRecorder{ResponseWriter: w}
		h(rec, r)
		hist.ObserveSince(t0)
		cls := rec.Status() / 100
		if cls < 1 || cls > 5 {
			cls = 2 // codes outside 1xx-5xx count as 2xx
		}
		counts[cls-1].Inc()
	}
}
