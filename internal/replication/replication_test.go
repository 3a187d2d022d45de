package replication

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"hotpaths/internal/wal"
)

// testFeed builds a WAL directory with n synced records and an httptest
// server exposing it through a replication Server.
func testFeed(t *testing.T, n int) (dir string, log *wal.Log, srv *httptest.Server, pos *atomic.Uint64) {
	t.Helper()
	dir = t.TempDir()
	log, err := wal.Open(dir, wal.Options{SegmentBytes: 1 << 10, FsyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	for i := 0; i < n; i++ {
		if _, err := log.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Sync(); err != nil {
		t.Fatal(err)
	}
	pos = &atomic.Uint64{}
	pos.Store(uint64(n))
	rs := &Server{
		Dir:      dir,
		Position: func() Status { return Status{NextLSN: pos.Load(), Epoch: 3, Clock: 30} },
		Poll:     time.Millisecond,
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+StreamPath, rs.ServeStream)
	mux.HandleFunc("GET "+CheckpointPath, rs.ServeCheckpoint)
	mux.HandleFunc("GET "+MetaPath, rs.ServeMeta)
	srv = httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return dir, log, srv, pos
}

func testRecord(i int) wal.Record {
	if i%5 == 4 {
		return wal.Record{Kind: wal.KindTick, T: int64(i)}
	}
	return wal.Record{Kind: wal.KindObserve, ObjectID: int64(i % 7), T: int64(i), X: float64(i), Y: float64(-i)}
}

// TestStreamDeliversLiveRecords streams an existing log, then appends more
// while the stream is open, and checks every record arrives in LSN order
// with heartbeats carrying the primary position.
func TestStreamDeliversLiveRecords(t *testing.T) {
	const preexisting, extra = 100, 50
	_, log, srv, pos := testFeed(t, preexisting)
	c := &Client{Base: srv.URL}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var got []wal.Record
	var hbs atomic.Int64
	done := make(chan error, 1)
	go func() {
		done <- c.Stream(ctx, 0, func(lsn uint64, rec wal.Record) error {
			if lsn != uint64(len(got)) {
				t.Errorf("lsn %d out of order (have %d records)", lsn, len(got))
			}
			got = append(got, rec)
			if len(got) == preexisting+extra {
				cancel()
			}
			return nil
		}, func(st Status) {
			hbs.Add(1)
			if st.Epoch != 3 {
				t.Errorf("heartbeat epoch = %d, want 3", st.Epoch)
			}
		})
	}()

	for i := 0; i < extra; i++ {
		if _, err := log.Append(testRecord(preexisting + i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Sync(); err != nil {
		t.Fatal(err)
	}
	pos.Store(preexisting + extra)

	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) && err != nil && ctx.Err() == nil {
			t.Fatalf("stream: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("stream did not deliver %d records (got %d)", preexisting+extra, len(got))
	}
	if len(got) != preexisting+extra {
		t.Fatalf("got %d records, want %d", len(got), preexisting+extra)
	}
	for i, r := range got {
		if r != testRecord(i) {
			t.Fatalf("record %d mismatch: %+v", i, r)
		}
	}
	if hbs.Load() == 0 {
		t.Fatal("no heartbeats received")
	}
}

// TestStreamResumesFromLSN checks mid-stream attachment: from=N delivers
// exactly the records at N and beyond.
func TestStreamResumesFromLSN(t *testing.T) {
	const n, from = 120, 77
	_, _, srv, _ := testFeed(t, n)
	c := &Client{Base: srv.URL}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var got []wal.Record
	err := c.Stream(ctx, from, func(lsn uint64, rec wal.Record) error {
		if want := uint64(from + len(got)); lsn != want {
			t.Fatalf("lsn %d, want %d", lsn, want)
		}
		got = append(got, rec)
		if len(got) == n-from {
			cancel()
		}
		return nil
	}, nil)
	if ctx.Err() == nil {
		t.Fatalf("stream ended early: %v", err)
	}
	for i, r := range got {
		if r != testRecord(from+i) {
			t.Fatalf("record %d mismatch", from+i)
		}
	}
}

// TestStreamGoneAfterTruncation: a from-LSN below the oldest surviving
// segment answers 410 and the client maps it to ErrSnapshotNeeded; the
// checkpoint endpoint then hands over the bootstrap state.
func TestStreamGoneAfterTruncation(t *testing.T) {
	const n = 200
	dir, log, srv, _ := testFeed(t, n)
	payload := []byte("checkpoint-state-blob")
	if err := wal.WriteCheckpoint(dir, 150, payload, 2); err != nil {
		t.Fatal(err)
	}
	if err := log.TruncateBefore(150); err != nil {
		t.Fatal(err)
	}
	c := &Client{Base: srv.URL}
	err := c.Stream(context.Background(), 0, func(uint64, wal.Record) error { return nil }, nil)
	if !errors.Is(err, ErrSnapshotNeeded) {
		t.Fatalf("stream from truncated LSN: got %v, want ErrSnapshotNeeded", err)
	}
	lsn, got, err := c.Checkpoint(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 150 || string(got) != string(payload) {
		t.Fatalf("checkpoint = (%d, %q), want (150, %q)", lsn, got, payload)
	}
}

// TestStreamBeyondLogEnd: a follower ahead of the primary's LSN space
// (the primary lost its unsynced tail in a crash) must be told to
// re-bootstrap, never silently handed different records.
func TestStreamBeyondLogEnd(t *testing.T) {
	_, _, srv, _ := testFeed(t, 10)
	c := &Client{Base: srv.URL}
	err := c.Stream(context.Background(), 10_000, func(uint64, wal.Record) error { return nil }, nil)
	if !errors.Is(err, ErrSnapshotNeeded) {
		t.Fatalf("stream beyond log end: got %v, want ErrSnapshotNeeded", err)
	}
}

// TestCheckpointMissing: no checkpoint file yet -> ErrNoCheckpoint.
func TestCheckpointMissing(t *testing.T) {
	_, _, srv, _ := testFeed(t, 10)
	c := &Client{Base: srv.URL}
	if _, _, err := c.Checkpoint(context.Background()); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("got %v, want ErrNoCheckpoint", err)
	}
}

// TestCheckpointOversizedBody: a peer serving a checkpoint body over
// MaxCheckpointBytes is refused with the typed error, before the follower
// buffers it.
func TestCheckpointOversizedBody(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(HeaderCheckpointLSN, "7")
		w.Header().Set("Content-Length", strconv.FormatInt(MaxCheckpointBytes+1, 10))
		chunk := make([]byte, 64<<10)
		for sent := int64(0); sent <= MaxCheckpointBytes; sent += int64(len(chunk)) {
			if _, err := w.Write(chunk); err != nil {
				return // the client hung up, as it should
			}
		}
	}))
	defer srv.Close()
	c := &Client{Base: srv.URL}
	_, payload, err := c.Checkpoint(context.Background())
	var tooLarge *CheckpointTooLargeError
	if !errors.As(err, &tooLarge) || tooLarge.Limit != MaxCheckpointBytes {
		t.Fatalf("got %v, want *CheckpointTooLargeError{Limit: %d}", err, int64(MaxCheckpointBytes))
	}
	if payload != nil {
		t.Errorf("oversized checkpoint returned %d payload bytes", len(payload))
	}
}

// A body of undeclared length is read at most one byte past the cap.
func TestReadCappedUndeclaredLength(t *testing.T) {
	const limit = 10
	if b, err := readCapped(bytes.NewReader(make([]byte, limit)), -1, limit); err != nil || len(b) != limit {
		t.Fatalf("body at the cap: %d bytes, %v", len(b), err)
	}
	body := bytes.NewReader(make([]byte, 100))
	_, err := readCapped(body, -1, limit)
	var tooLarge *CheckpointTooLargeError
	if !errors.As(err, &tooLarge) {
		t.Fatalf("body past the cap: got %v, want *CheckpointTooLargeError", err)
	}
	if read := 100 - body.Len(); read != limit+1 {
		t.Errorf("read %d bytes of an oversized body, want %d", read, limit+1)
	}
}

// TestMetaRoundTrip serves the meta.json bytes verbatim.
func TestMetaRoundTrip(t *testing.T) {
	dir, _, srv, _ := testFeed(t, 1)
	meta := []byte(`{"Eps":10,"W":100}`)
	if err := os.WriteFile(filepath.Join(dir, "meta.json"), meta, 0o644); err != nil {
		t.Fatal(err)
	}
	c := &Client{Base: srv.URL}
	got, err := c.Meta(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(meta) {
		t.Fatalf("meta = %q, want %q", got, meta)
	}
}

func TestParseBase(t *testing.T) {
	for _, ok := range []string{"http://localhost:8080", "https://primary.example.com"} {
		if err := ParseBase(ok); err != nil {
			t.Errorf("ParseBase(%q) = %v", ok, err)
		}
	}
	for _, bad := range []string{"", "localhost:8080", "ftp://x", "http://"} {
		if err := ParseBase(bad); err == nil {
			t.Errorf("ParseBase(%q) accepted", bad)
		}
	}
}
