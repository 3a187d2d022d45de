package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestReadSSE(t *testing.T) {
	stream := ": comment\n" +
		"id: 1\nevent: delta\ndata: {\"clock\":10,\"epoch\":1,\"entered\":[],\"changed\":[],\"left\":[]}\n\n" +
		"event: delta\ndata: {\"clock\":20,\ndata: \"epoch\":2,\"reset\":true,\"missed\":3}\n\n" +
		"event: other\ndata: x\n\n" +
		"event: delta\ndata: {\"clock\":30}\n" // no blank line: incomplete, dropped
	var evs []sseEvent
	if err := readSSE(strings.NewReader(stream), func(ev sseEvent) error {
		evs = append(evs, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3: %q", len(evs), evs)
	}
	d, err := parseDelta(evs[0])
	if err != nil || d.Clock != 10 || d.Epoch != 1 || d.Reset {
		t.Errorf("first delta %+v, %v", d, err)
	}
	d, err = parseDelta(evs[1])
	if err != nil || d.Clock != 20 || d.Epoch != 2 || !d.Reset || d.Missed != 3 {
		t.Errorf("multi-line delta %+v, %v", d, err)
	}
	if _, err := parseDelta(evs[2]); err == nil {
		t.Error("a non-delta event must not parse as a delta")
	}
}

func TestFailureCounting(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/ok":
			w.WriteHeader(http.StatusOK)
		case "/partial":
			w.Header().Set("X-Hotpaths-Partial", "2")
			w.WriteHeader(http.StatusPartialContent)
		default:
			w.WriteHeader(http.StatusBadRequest)
		}
	}))
	c := newConn()
	defer c.close()
	var tl tally
	ctx := context.Background()
	if rep, err := c.do(ctx, &tl, "GET", srv.URL+"/ok", nil); !good(rep, err) {
		t.Fatalf("200 not good: %v %v", rep.status, err)
	}
	if rep, err := c.do(ctx, &tl, "GET", srv.URL+"/partial", nil); good(rep, err) || rep.status != http.StatusPartialContent {
		t.Fatalf("206 must be a failure: %v %v", rep.status, err)
	}
	c.do(ctx, &tl, "POST", srv.URL+"/bad", []byte("{}"))
	srv.Close()
	if _, err := c.do(ctx, &tl, "GET", srv.URL+"/ok", nil); err == nil {
		t.Fatal("request to a closed server succeeded")
	}
	if a, f := tl.counts(); a != 4 || f != 3 {
		t.Fatalf("attempted=%d failed=%d, want 4 and 3 (206, 400, transport error)", a, f)
	}
	if len(tl.first) != 3 || !strings.Contains(tl.first[0], "206") {
		t.Errorf("failure descriptions %q", tl.first)
	}
}

func TestWatchMissingDelta(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		w.WriteHeader(http.StatusOK)
		for _, clock := range []int{0, 10, 20} {
			fmt.Fprintf(w, "event: delta\ndata: {\"clock\":%d,\"epoch\":%d}\n\n", clock, clock/10)
		}
		// Epoch 3 was dropped for a slow consumer: the reset at clock 40
		// stands in for it.
		fmt.Fprintf(w, "event: delta\ndata: {\"clock\":40,\"epoch\":4,\"reset\":true,\"missed\":1}\n\n")
		w.(http.Flusher).Flush()
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer srv.Close()
	defer close(release)
	w, err := startWatch(context.Background(), srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	for _, clock := range []int64{10, 20, 40} {
		if _, ok := w.arrival(clock, 5*time.Second); !ok {
			t.Errorf("delta for clock %d not seen", clock)
		}
	}
	if _, ok := w.arrival(0, 10*time.Millisecond); ok {
		t.Error("the baseline event must not count as an epoch delta")
	}
	if _, ok := w.arrival(30, 20*time.Millisecond); ok {
		t.Error("clock 30 never arrived but was reported")
	}
	if w.missed != 1 {
		t.Errorf("missed=%d, want 1", w.missed)
	}
}

func TestParseProm(t *testing.T) {
	text := `# HELP x help
# TYPE hotpaths_http_request_seconds histogram
hotpaths_http_request_seconds_bucket{route="/observe",le="0.005"} 3
hotpaths_http_request_seconds_sum{route="/observe"} 0.25
hotpaths_http_request_seconds_count{route="/observe"} 4
hotpaths_http_request_seconds_sum{route="/tick"} 1.5
hotpaths_http_request_seconds_count{route="/tick"} 2
hotpaths_engine_epochs_total 7
`
	ss := parseProm([]byte(text))
	if got := promSum(ss, "hotpaths_http_request_seconds_sum", `route="/observe"`); got != 0.25 {
		t.Errorf("observe sum %v", got)
	}
	if got := promSum(ss, "hotpaths_http_request_seconds_count", ""); got != 6 {
		t.Errorf("count over all routes %v", got)
	}
	if got := promSum(ss, "hotpaths_engine_epochs_total", ""); got != 7 {
		t.Errorf("unlabelled counter %v", got)
	}
	before := [][]promSample{parseProm([]byte("h_sum 1\nh_count 2\n"))}
	after := [][]promSample{parseProm([]byte("h_sum 4\nh_count 5\n"))}
	if m, n := histMean(before, after, "h", ""); m != 1 || n != 3 {
		t.Errorf("histMean = %v over %d, want 1 over 3", m, n)
	}
	if got := routes([][]promSample{ss}); strings.Join(got, ",") != "/observe,/tick" {
		t.Errorf("routes %q", got)
	}
}
