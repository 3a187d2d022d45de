package gateway

import (
	"net/http"
	"time"

	"hotpaths/internal/metrics"
	"hotpaths/internal/tracing"
)

// Gateway-wide instruments. Per-partition instruments (request-duration
// histograms, health gauges) are registered per partition in New.
var (
	mPartitions = metrics.Default.Gauge("hotpathsgw_partitions",
		"Number of partitions in the routing table.", nil)
	mInflight = metrics.Default.Gauge("hotpathsgw_fanout_inflight",
		"Partition sub-requests currently in flight.", nil)
	mMergeSeconds = metrics.Default.Histogram("hotpathsgw_merge_seconds",
		"Time to merge the fleet's path sets into one view.",
		metrics.LatencyBuckets, nil)
	mPartial = metrics.Default.Counter("hotpathsgw_partial_responses_total",
		"Scatter-gather responses missing at least one partition.", nil)
)

// statusClasses matches hotpathsd's per-route counter buckets.
var statusClasses = [5]string{"1xx", "2xx", "3xx", "4xx", "5xx"}

// instrument wraps one gateway route with a request-duration histogram
// and status-class counters, hotpathsd's idiom: instruments register at
// wrap time, the request path touches only atomics.
func (g *Gateway) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	hist := metrics.Default.Histogram("hotpathsgw_http_request_seconds",
		"Gateway HTTP request duration by route.",
		metrics.LatencyBuckets, metrics.Labels{"route": route})
	var counts [5]*metrics.Counter
	for i, class := range statusClasses {
		counts[i] = metrics.Default.Counter("hotpathsgw_http_requests_total",
			"Gateway HTTP requests by route and status class.",
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
