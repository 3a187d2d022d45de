package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"hotpaths"
)

// tally counts attempted and failed operations. Any answer but 200 is a
// failure — including the gateway's 206 partial answer — as are
// transport errors and /watch deltas that never arrive.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	first     []string // the first few failure descriptions
}

func (t *tally) ok() {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	t.failed++
	if len(t.first) < 5 {
		t.first = append(t.first, fmt.Sprintf(format, args...))
	}
}

// counts returns attempted and failed so far.
func (t *tally) counts() (int, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempted, t.failed
}

// conn is one load-generator connection: an HTTP client whose transport
// keeps at most one connection per host open.
type conn struct {
	c *http.Client
}

func newConn() *conn {
	return &conn{c: &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}}
}

func (c *conn) close() { c.c.CloseIdleConnections() }

// reply is one completed request: status, headers and body.
type reply struct {
	status int
	header http.Header
	body   []byte
}

// do sends one request and reads the whole answer. A transport error is
// returned as err; a non-200 answer is returned as a reply and also
// counted as a failure on t (when t is non-nil).
func (c *conn) do(ctx context.Context, t *tally, method, url string, body []byte) (reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return reply{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.c.Do(req)
	if err != nil {
		if t != nil {
			t.fail("%s %s: %v", method, url, err)
		}
		return reply{}, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		if t != nil {
			t.fail("%s %s: read body: %v", method, url, err)
		}
		return reply{}, err
	}
	r := reply{status: resp.StatusCode, header: resp.Header, body: b}
	if t != nil {
		if r.status != http.StatusOK {
			t.fail("%s %s: status %d: %s", method, url, r.status, strings.TrimSpace(string(b)))
		} else {
			t.ok()
		}
	}
	return r, nil
}

// good reports whether a request completed with 200.
func good(r reply, err error) bool { return err == nil && r.status == http.StatusOK }

// sseEvent is one Server-Sent Event: its type and data payload.
type sseEvent struct {
	event string
	data  []byte
}

// readSSE parses a text/event-stream, calling fn for each complete event
// (terminated by a blank line). Comment lines and fields other than event
// and data are ignored; multi-line data is joined with newlines.
func readSSE(r io.Reader, fn func(sseEvent) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	var ev sseEvent
	var data [][]byte
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			if ev.event != "" || data != nil {
				ev.data = bytes.Join(data, []byte("\n"))
				if err := fn(ev); err != nil {
					return err
				}
			}
			ev, data = sseEvent{}, nil
			continue
		}
		if line[0] == ':' {
			continue
		}
		field, value, _ := bytes.Cut(line, []byte(":"))
		value = bytes.TrimPrefix(value, []byte(" "))
		switch string(field) {
		case "event":
			ev.event = string(value)
		case "data":
			data = append(data, append([]byte(nil), value...))
		}
	}
	return sc.Err()
}

// watchDelta is the data of a /watch "delta" event.
type watchDelta struct {
	Clock   int64               `json:"clock"`
	Epoch   int64               `json:"epoch"`
	Reset   bool                `json:"reset"`
	Missed  int                 `json:"missed"`
	Entered []hotpaths.PathJSON `json:"entered"`
	Changed []hotpaths.PathJSON `json:"changed"`
	Left    []uint64            `json:"left"`
}

// parseDelta decodes a "delta" event; other event types are an error.
func parseDelta(ev sseEvent) (watchDelta, error) {
	var d watchDelta
	if ev.event != "delta" {
		return d, fmt.Errorf("unexpected SSE event %q", ev.event)
	}
	if err := json.Unmarshal(ev.data, &d); err != nil {
		return d, fmt.Errorf("decode delta: %w", err)
	}
	return d, nil
}

// watcher holds one /watch stream open and timestamps each delta's
// arrival by the clock it carries.
type watcher struct {
	mu      sync.Mutex
	arrived map[int64]time.Time // clock → arrival
	missed  int                 // epochs the daemon reported as dropped
	cancel  context.CancelFunc
	done    chan struct{}
	err     error
	ready   chan struct{} // closed once the baseline delta arrived
}

// startWatch opens GET /watch on its own connection and waits for the
// baseline event.
func startWatch(ctx context.Context, url string) (*watcher, error) {
	ctx, cancel := context.WithCancel(ctx)
	w := &watcher{
		arrived: make(map[int64]time.Time),
		cancel:  cancel,
		done:    make(chan struct{}),
		ready:   make(chan struct{}),
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/watch", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}}
	resp, err := client.Do(req)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("open /watch: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("open /watch: status %d", resp.StatusCode)
	}
	go func() {
		defer close(w.done)
		defer resp.Body.Close()
		first := true
		err := readSSE(resp.Body, func(ev sseEvent) error {
			d, err := parseDelta(ev)
			if err != nil {
				return err
			}
			now := time.Now()
			w.mu.Lock()
			if !first {
				w.arrived[d.Clock] = now
				w.missed += d.Missed
			}
			w.mu.Unlock()
			if first {
				first = false
				close(w.ready)
			}
			return nil
		})
		if ctx.Err() == nil {
			if err == nil {
				err = errors.New("/watch stream ended")
			}
			w.err = err
		}
	}()
	select {
	case <-w.ready:
		return w, nil
	case <-w.done:
		cancel()
		return nil, fmt.Errorf("/watch: %v", w.err)
	case <-time.After(10 * time.Second):
		w.close()
		return nil, errors.New("/watch: no baseline delta within 10s")
	}
}

// arrival returns when the delta for clock arrived, waiting up to limit.
func (w *watcher) arrival(clock int64, limit time.Duration) (time.Time, bool) {
	deadline := time.Now().Add(limit)
	for {
		w.mu.Lock()
		at, ok := w.arrived[clock]
		w.mu.Unlock()
		if ok {
			return at, true
		}
		if time.Now().After(deadline) {
			return time.Time{}, false
		}
		select {
		case <-w.done:
			w.mu.Lock()
			at, ok = w.arrived[clock]
			w.mu.Unlock()
			return at, ok
		case <-time.After(time.Millisecond):
		}
	}
}

// close ends the stream and waits for the reader goroutine.
func (w *watcher) close() {
	w.cancel()
	<-w.done
}

// promSample is one exposition line: metric name, label set and value.
type promSample struct {
	name   string
	labels string
	value  float64
}

// parseProm reads the Prometheus text exposition format (the subset the
// daemons emit: no timestamps, no escaped quotes inside label values).
func parseProm(b []byte) []promSample {
	var out []promSample
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		key := line[:sp]
		name, labels := key, ""
		if i := strings.IndexByte(key, '{'); i >= 0 {
			name, labels = key[:i], key[i:]
		}
		out = append(out, promSample{name: name, labels: labels, value: v})
	}
	return out
}

// promSum totals every sample of a metric whose labels contain want
// (empty want matches all).
func promSum(ss []promSample, name, want string) float64 {
	var s float64
	for _, x := range ss {
		if x.name == name && strings.Contains(x.labels, want) {
			s += x.value
		}
	}
	return s
}

// scrape fetches a process's /metrics.
func scrape(ctx context.Context, url string) ([]promSample, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := probeClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: status %d", url, resp.StatusCode)
	}
	return parseProm(b), nil
}
