package engine

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"hotpaths/internal/coordinator"
	"hotpaths/internal/geom"
	"hotpaths/internal/raytrace"
	"hotpaths/internal/trajectory"
)

func testCoordinator(t *testing.T) *coordinator.Coordinator {
	t.Helper()
	c, err := coordinator.New(coordinator.Config{
		Bounds: geom.Rect{Lo: geom.Pt(-5000, -5000), Hi: geom.Pt(5000, 5000)},
		W:      100,
		Eps:    5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func fixedTol(_, _ float64) raytrace.ToleranceFunc { return raytrace.FixedTolerance(5) }

func testEngine(t *testing.T, shards int) *Engine {
	t.Helper()
	e, err := New(Config{
		Coord:     testCoordinator(t),
		Epoch:     10,
		Tolerance: fixedTol,
		Shards:    shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func TestNewValidation(t *testing.T) {
	coord := testCoordinator(t)
	bad := []Config{
		{Epoch: 10, Tolerance: fixedTol},               // no coordinator
		{Coord: coord, Tolerance: fixedTol},            // no epoch
		{Coord: coord, Epoch: -1, Tolerance: fixedTol}, // negative epoch
		{Coord: coord, Epoch: 10},                      // no tolerance factory
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: config must be rejected", i)
		}
	}
	e, err := New(Config{Coord: coord, Epoch: 10, Tolerance: fixedTol})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.Shards() <= 0 {
		t.Errorf("defaulted shard count = %d", e.Shards())
	}
}

func TestShardIndexStableAndInRange(t *testing.T) {
	e := testEngine(t, 8)
	for id := -100; id < 100; id++ {
		i := e.shardIndex(id)
		if i < 0 || i >= 8 {
			t.Fatalf("shardIndex(%d) = %d out of range", id, i)
		}
		if j := e.shardIndex(id); j != i {
			t.Fatalf("shardIndex(%d) unstable: %d then %d", id, i, j)
		}
	}
}

// modes names the filter-tier inputs each contract test runs under:
// inline (Shards == 0) and sharded.
func modes(sharded int) []int { return []int{0, sharded} }

// The epoch-boundary barrier must drain every queued observation before
// Stats are read, making the counters exact.
func TestBarrierDrains(t *testing.T) {
	for _, shards := range modes(8) {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { testBarrierDrains(t, shards) })
	}
}

func testBarrierDrains(t *testing.T, shards int) {
	e := testEngine(t, shards)
	const n = 1000
	batch := make([]Observation, n)
	for i := range batch {
		batch[i] = Observation{ObjectID: i, P: geom.Pt(float64(i), 0), T: 1}
	}
	if err := e.ObserveBatch(batch); err != nil {
		t.Fatal(err)
	}
	for now := trajectory.Time(1); now <= 10; now++ {
		if err := e.Tick(now); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.Stats().Observations; got != n {
		t.Errorf("Observations = %d after barrier, want %d", got, n)
	}
}

// A per-observation processing error must surface from the next
// epoch-boundary Tick, naming the object — without suppressing the epoch
// for everyone else.
func TestProcessingErrorSurfaces(t *testing.T) {
	for _, shards := range modes(4) {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { testProcessingErrorSurfaces(t, shards) })
	}
}

func testProcessingErrorSurfaces(t *testing.T, shards int) {
	e := testEngine(t, shards)
	feed := []Observation{
		{ObjectID: 7, P: geom.Pt(0, 0), T: 5},
		{ObjectID: 7, P: geom.Pt(1, 1), T: 6},
		{ObjectID: 7, P: geom.Pt(2, 2), T: 6}, // repeated timestamp
	}
	if err := e.ObserveBatch(feed); err != nil {
		t.Fatal(err)
	}
	err := e.Tick(10)
	if err == nil {
		t.Fatal("Tick must surface the shard processing error")
	}
	// Typed classification (errstring contract): the object is carried
	// on *ObjectError, not fished out of the rendered message.
	var objErr *ObjectError
	if !errors.As(err, &objErr) || objErr.ObjectID != 7 {
		t.Errorf("error %q does not carry *ObjectError for object 7", err)
	}
	// The epoch itself still ran: one bad client must not stall hot-path
	// discovery for well-behaved objects.
	if got := e.Stats().Coordinator.Epochs; got != 1 {
		t.Errorf("Epochs = %d after erroring Tick, want 1", got)
	}
	// The error is consumed; the engine keeps working.
	if err := e.Tick(20); err != nil {
		t.Errorf("engine did not recover: %v", err)
	}
}

func TestTickMonotonic(t *testing.T) {
	e := testEngine(t, 2)
	if err := e.Tick(0); err == nil {
		t.Error("Tick(0) must error (clock starts at 0)")
	}
	if err := e.Tick(5); err != nil {
		t.Fatal(err)
	}
	if err := e.Tick(5); err == nil {
		t.Error("repeated Tick must error")
	}
	if err := e.Tick(3); err == nil {
		t.Error("backwards Tick must error")
	}
}

func TestCloseSemantics(t *testing.T) {
	for _, shards := range modes(4) {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { testCloseSemantics(t, shards) })
	}
}

func testCloseSemantics(t *testing.T, shards int) {
	e := testEngine(t, shards)
	if err := e.Observe(Observation{ObjectID: 1, P: geom.Pt(0, 0), T: 1}); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Errorf("double Close must be a no-op, got %v", err)
	}
	if err := e.Observe(Observation{ObjectID: 1, P: geom.Pt(1, 1), T: 2}); err != ErrClosed {
		t.Errorf("Observe after Close = %v, want ErrClosed", err)
	}
	if err := e.Tick(10); err != ErrClosed {
		t.Errorf("Tick after Close = %v, want ErrClosed", err)
	}
	// Queries remain valid.
	if got := e.Stats().Observations; got != 1 {
		t.Errorf("Stats after Close: Observations = %d, want 1", got)
	}
	if paths := e.AllPaths(); paths == nil && len(paths) != 0 {
		t.Error("AllPaths after Close must not panic")
	}
}

// An inline Observe returns a per-object error at once — and only once:
// the next epoch Tick does not repeat it.
func TestInlineObserveErrorReturnedOnce(t *testing.T) {
	e := testEngine(t, 0)
	for _, o := range []Observation{
		{ObjectID: 7, P: geom.Pt(0, 0), T: 5},
		{ObjectID: 7, P: geom.Pt(1, 1), T: 6},
	} {
		if err := e.Observe(o); err != nil {
			t.Fatal(err)
		}
	}
	err := e.Observe(Observation{ObjectID: 7, P: geom.Pt(2, 2), T: 6}) // repeated timestamp
	var objErr *ObjectError
	if !errors.As(err, &objErr) || objErr.ObjectID != 7 {
		t.Fatalf("inline Observe error = %v, want *ObjectError for object 7", err)
	}
	if err := e.Tick(10); err != nil {
		t.Errorf("Tick repeated the Observe error: %v", err)
	}
	if got := e.Stats().Coordinator.Epochs; got != 1 {
		t.Errorf("Epochs = %d, want 1", got)
	}
}

// feedRoute drives objects along one shared zig-zag route, each a little
// behind the previous, over the ticks in (from, to]: enough direction
// changes to raise reports, and enough sharing to make crossings.
func feedRoute(t *testing.T, e *Engine, from, to trajectory.Time) {
	t.Helper()
	const objects = 24
	for now := from + 1; now <= to; now++ {
		var batch []Observation
		for id := 0; id < objects; id++ {
			step := float64(now) - float64(id)
			if step < 1 {
				continue
			}
			y := 0.0
			if int(step)/6%2 == 1 {
				y = 40
			}
			batch = append(batch, Observation{ObjectID: id, P: geom.Pt(8*step, y+float64(id%4)/2), T: now})
		}
		if err := e.ObserveBatch(batch); err != nil {
			t.Fatal(err)
		}
		if err := e.Tick(now); err != nil {
			t.Fatal(err)
		}
	}
}

// State dumped from an inline engine restores into a 4-shard engine, and
// the reverse, and the restored engine continues bit-identically to the
// one that was dumped — mid-epoch, with reports pending.
func TestStateCrossesFilterTiers(t *testing.T) {
	for _, c := range []struct{ from, to int }{{0, 4}, {4, 0}} {
		t.Run(fmt.Sprintf("shards=%d->%d", c.from, c.to), func(t *testing.T) {
			src := testEngine(t, c.from)
			feedRoute(t, src, 0, 95)
			st, err := src.DumpState()
			if err != nil {
				t.Fatal(err)
			}
			if len(st.Pending) == 0 {
				t.Fatal("dump has no pending reports; the mid-epoch case is not exercised")
			}
			dst := testEngine(t, c.to)
			if err := dst.RestoreState(st); err != nil {
				t.Fatal(err)
			}
			feedRoute(t, src, 95, 200)
			feedRoute(t, dst, 95, 200)
			want, got := src.Stats(), dst.Stats()
			if want.Reports == 0 || want.Coordinator.Crossings == 0 {
				t.Fatalf("workload too tame to be meaningful: %+v", want)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("stats diverge after restore:\n dumped   %+v\n restored %+v", want, got)
			}
			if !reflect.DeepEqual(src.AllPaths(), dst.AllPaths()) {
				t.Error("paths diverge after restore")
			}
		})
	}
}
