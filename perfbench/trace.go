package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"hotpaths"
	"hotpaths/internal/wal"
)

// layers accumulates the spans of the traced reference System replay.
type layers struct {
	systemFilter time.Duration // Observe loops
	systemTick   time.Duration // every Tick
	systemObs    int
	coordEpoch   samples // Tick at epoch boundaries
	final        hotpaths.Stats
}

// servedRun is what the traced run's served phase hands to traceLayers.
type servedRun struct {
	kind       string
	seed       int64
	timestamps int64         // input timestamps the SUT received
	acked      int64         // observations acknowledged in the timed phase
	writeTime  time.Duration // client-side time of the timed phase's write requests
	bodies     [][]byte      // sampled POST /observe bodies, exactly as sent
	walDir     string        // athens-wal: the daemon's journal directory

	before, after []promSample // single daemon: /metrics around the timed phase

	fleet                   *fleet // fleet-read: the running fleet
	feed                    *feeder
	fleetBefore, fleetAfter [][]promSample
}

// probeCycles is how many write cycles the gateway probe runs.
const probeCycles = 24

// traceLayers emits the per-layer metrics. Each layer is called through
// the library in-process on the same generated input the served phase
// sent, with one span per call; the fleet layers come from a gateway
// probe and from the gateway's own /metrics.
func traceLayers(ctx context.Context, o options, r *report, sup *supervisor, sv servedRun, lay *layers) error {
	// wire: decode the exact request bodies the daemon received.
	var (
		decodeDur       time.Duration
		decodedN, bodyB int
		decoded         [][]hotpaths.Observation
	)
	for _, b := range sv.bodies {
		t0 := time.Now()
		var req observeBody
		if err := json.NewDecoder(bytes.NewReader(b)).Decode(&req); err != nil {
			return fmt.Errorf("decode sampled body: %w", err)
		}
		batch := make([]hotpaths.Observation, len(req.Observations))
		for i, o := range req.Observations {
			batch[i] = o.Observation()
		}
		decodeDur += time.Since(t0)
		decodedN += len(batch)
		bodyB += len(b)
		decoded = append(decoded, batch)
	}
	if decodedN == 0 {
		return fmt.Errorf("traced run kept no request bodies")
	}
	decodeUs := us(decodeDur) / float64(decodedN)
	r.add("wire.decode_us_per_obs", "us", decodeUs, fmt.Sprintf("%d sampled bodies, %d observations", len(sv.bodies), decodedN))
	r.add("wire.body_bytes_per_obs", "B", float64(bodyB)/float64(decodedN), "sampled bodies")

	// filter + coord: the reference System replay's spans.
	fs := lay.final
	r.add("filter.us_per_obs", "us", us(lay.systemFilter)/float64(lay.systemObs), "System.Observe, single goroutine")
	r.add("filter.report_ratio", "ratio", float64(fs.Reports)/float64(fs.Observations), fmt.Sprintf("%d reports / %d observations", fs.Reports, fs.Observations))
	r.add("system.obs_per_s", "obs/s", float64(lay.systemObs)/(lay.systemFilter+lay.systemTick).Seconds(), "in-process System replay of the same input")
	addTimingPair(r, "coord.epoch", lay.coordEpoch)
	r.add("coord.reports_per_epoch", "count", float64(fs.Reports)/float64(fs.Epochs), fmt.Sprintf("%d epochs", fs.Epochs))
	r.add("coord.index_paths", "count", float64(fs.IndexSize), "live paths at the end")
	r.add("coord.paths_created", "count", float64(fs.PathsCreated), "")
	r.add("coord.crossings", "count", float64(fs.Crossings), "")

	eng, err := engineReplay(sv, o.seed)
	if err != nil {
		return err
	}
	r.add("engine.observe_us_per_obs", "us", us(eng.observe)/float64(eng.obs), "Engine.ObserveBatch: validation and shard enqueue")
	addTimingPair(r, "engine.tick_epoch", eng.tickEpoch)
	capture := median(eng.capture)
	r.add("snapshot.capture_ms", "ms", capture.value, capture.String())
	r.add("snapshot.paths", "count", float64(eng.paths), "paths in the final snapshot")
	r.add("snapshot.query_topk_us", "us", eng.topkUs, "median over 9 batches of 200 top-k queries on the final snapshot")
	r.add("snapshot.query_region_us", "us", eng.regionUs, "median over 9 batches of 200 seeded 1 km viewport queries")
	r.add("wire.encode_paths_us", "us", eng.encodeUs, "JSON encoding of every live path, the /paths answer a gateway leg carries")
	r.add("wire.paths_bytes", "B", float64(eng.encodeBytes), "")
	delta := median(eng.delta)
	r.add("subscribe.delta_us", "us", delta.value*1000, "Engine.Tick call to delta receipt, "+delta.String())

	// wal: the identical records, appended and synced in a scratch log.
	w, err := walReplay(filepath.Join(o.work, "wal-layer"), decoded)
	if err != nil {
		return err
	}
	r.add("wal.append_us_per_obs", "us", w.appendUs, "wal.Log.AppendBatch on the sampled batches")
	r.add("wal.bytes_per_obs", "B", w.bytesPerObs, "")
	fsync := median(w.sync)
	r.add("wal.fsync_ms", "ms", fsync.value, "Log.Sync after each batch, "+fsync.String())

	// durable: checkpoints of the replayed state, then Recover.
	dur, err := durableReplay(filepath.Join(o.work, "durable-layer"), sv)
	if err != nil {
		return err
	}
	ck := median(dur.ckpt)
	r.add("durable.checkpoint_ms", "ms", ck.value, "Durable.Checkpoint at every epoch boundary, "+ck.String())
	r.add("durable.checkpoint_bytes", "B", float64(dur.ckptBytes), "newest checkpoint file")
	recDir, recWhat := dur.dir, "the in-process Durable's directory"
	if sv.walDir != "" {
		recDir, recWhat = sv.walDir, "the daemon's WAL directory as left by SIGKILL"
	}
	t0 := time.Now()
	if _, err := hotpaths.Recover(recDir); err != nil {
		return fmt.Errorf("Recover %s: %w", recDir, err)
	}
	r.add("durable.recover_s", "s", time.Since(t0).Seconds(), "hotpaths.Recover on "+recWhat)

	// gateway: direct partition legs, merge time and cache hits.
	if err := gatewayLayers(ctx, o, r, sup, sv); err != nil {
		return err
	}

	// The remainder: client-measured write time per observation minus
	// the in-process layers on the write path.
	served := us(sv.writeTime) / float64(sv.acked)
	sum := decodeUs + us(eng.observe)/float64(eng.obs) + us(eng.tickAll)/float64(eng.obs)
	parts := "decode + engine observe + engine tick"
	if sv.walDir != "" {
		sum += w.appendUs + dur.ckptTotalMs*1000/float64(eng.obs)
		parts += " + wal append + checkpoints"
	}
	r.add("hotpathsd.unattributed_us_per_obs", "us", served-sum,
		fmt.Sprintf("served %.3f us/obs minus %s %.3f us/obs", served, parts, sum))

	// Cross-check against the SUT's own instruments.
	before, after := [][]promSample{sv.before}, [][]promSample{sv.after}
	if sv.fleet != nil {
		before, after = sv.fleetBefore[:fleetPartitions], sv.fleetAfter[:fleetPartitions]
	}
	for _, x := range []struct{ name, family, labels string }{
		{"sut.epoch_barrier_ms", "hotpaths_engine_epoch_barrier_seconds", ""},
		{"sut.tick_ms", "hotpaths_engine_tick_seconds", ""},
		{"sut.observe_handler_ms", "hotpaths_http_request_seconds", `route="/observe"`},
	} {
		m, n := histMean(before, after, x.family, x.labels)
		if n == 0 {
			return fmt.Errorf("%s: no %s observations in the timed phase", x.name, x.family)
		}
		r.add(x.name, "ms", m*1000, fmt.Sprintf("mean of %d from the daemons' %s", n, x.family))
	}
	for _, fam := range []string{"hotpaths_wal_append_seconds", "hotpaths_wal_fsync_seconds", "hotpaths_checkpoint_seconds", "hotpaths_engine_observe_batch_seconds"} {
		m, n := histMean(before, after, fam, "")
		r.note("sut %s mean %.4f ms over %d", fam, m*1000, n)
	}
	for _, route := range routes(after) {
		m, n := histMean(before, after, "hotpaths_http_request_seconds", `route="`+route+`"`)
		r.note("sut hotpaths_http_request_seconds{route=%q} mean %.4f ms over %d", route, m*1000, n)
	}
	return nil
}

// addTimingPair adds name_p50_ms and name_tail_ms from one sample set.
func addTimingPair(r *report, name string, xs samples) {
	r.addStat(name+"_p50_ms", median(xs))
	// The tail is p90 where the run has the epochs for it; fleet-read's
	// shorter input supports only p75.
	q := 0.90
	if beyond(len(xs), q) < 10 {
		q = 0.75
	}
	r.addStat(name+"_tail_ms", pct(xs, q))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// histMean is the mean of a histogram family between two scrapes, summed
// over processes, and the number of observations it covers.
func histMean(before, after [][]promSample, family, labels string) (float64, int) {
	var sum, count float64
	for i := range after {
		sum += promSum(after[i], family+"_sum", labels) - promSum(before[i], family+"_sum", labels)
		count += promSum(after[i], family+"_count", labels) - promSum(before[i], family+"_count", labels)
	}
	if count == 0 {
		return 0, 0
	}
	return sum / count, int(count)
}

// routes lists the route labels of hotpaths_http_request_seconds.
func routes(scrapes [][]promSample) []string {
	seen := map[string]bool{}
	for _, ss := range scrapes {
		for _, s := range ss {
			if s.name != "hotpaths_http_request_seconds_count" {
				continue
			}
			if _, rest, ok := strings.Cut(s.labels, `route="`); ok {
				route, _, _ := strings.Cut(rest, `"`)
				seen[route] = true
			}
		}
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// engineResult holds the Engine replay's spans.
type engineResult struct {
	obs                int
	observe, tickAll   time.Duration
	tickEpoch, capture samples
	delta              samples
	paths              int
	topkUs, regionUs   float64
	encodeUs           float64
	encodeBytes        int
}

// engineReplay drives a sharded Engine, with one standing top-k
// subscription as /watch holds, through the same input.
func engineReplay(sv servedRun, seed int64) (*engineResult, error) {
	e, err := hotpaths.NewEngine(hotpaths.EngineConfig{Config: pipelineConfig})
	if err != nil {
		return nil, err
	}
	defer e.Close()
	sub, err := e.Subscribe(hotpaths.Query{}.K(pipelineConfig.K))
	if err != nil {
		return nil, err
	}
	var (
		mu      sync.Mutex
		arrived = map[int64]time.Time{}
		done    = make(chan struct{})
	)
	go func() {
		defer close(done)
		for d := range sub.Deltas() {
			at := time.Now()
			mu.Lock()
			arrived[d.Clock] = at
			mu.Unlock()
		}
	}()
	res := &engineResult{}
	tickStart := map[int64]time.Time{}
	err = replay(sv.kind, sv.seed, sv.timestamps, func(t int64, obs []hotpaths.ObservationJSON) error {
		batch := make([]hotpaths.Observation, len(obs))
		for i, o := range obs {
			batch[i] = o.Observation()
		}
		t0 := time.Now()
		if err := e.ObserveBatch(batch); err != nil {
			return err
		}
		t1 := time.Now()
		if err := e.Tick(t); err != nil {
			return err
		}
		tick := time.Since(t1)
		res.observe += t1.Sub(t0)
		res.tickAll += tick
		res.obs += len(obs)
		if t%pipelineConfig.Epoch == 0 {
			tickStart[t] = t1
			res.tickEpoch.add(tick)
			t2 := time.Now()
			_ = e.Snapshot()
			res.capture.add(time.Since(t2))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("Engine replay: %w", err)
	}
	snap := e.Snapshot()
	sub.Close()
	<-done
	for t, st := range tickStart {
		if at, ok := arrived[t]; ok {
			res.delta.add(at.Sub(st))
		}
	}
	res.paths = snap.Len()

	// Single queries take well under a microsecond, so each span covers a
	// batch of them and reports the batch's mean.
	const batches, perBatch = 9, 200
	rng := rand.New(rand.NewSource(seed))
	var topk, region samples
	for b := 0; b < batches; b++ {
		t0 := time.Now()
		for i := 0; i < perBatch; i++ {
			_ = snap.Query(hotpaths.Query{}.K(pipelineConfig.K))
		}
		topk = append(topk, since(t0)/perBatch)
		regs := make([]hotpaths.Rect, perBatch)
		for i := range regs {
			x := rng.Float64() * (pipelineConfig.Bounds.Max.X - viewport)
			y := rng.Float64() * (pipelineConfig.Bounds.Max.Y - viewport)
			regs[i] = hotpaths.Rect{Min: hotpaths.Pt(x, y), Max: hotpaths.Pt(x+viewport, y+viewport)}
		}
		t0 = time.Now()
		for _, reg := range regs {
			_ = snap.Query(hotpaths.Query{}.Region(reg))
		}
		region = append(region, since(t0)/perBatch)
	}
	res.topkUs = quantile(topk, 0.5) * 1000
	res.regionUs = quantile(region, 0.5) * 1000
	var q samples
	all := snap.HotPaths()
	q = q[:0]
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		b, err := json.Marshal(hotpaths.PathsJSON(all))
		if err != nil {
			return nil, err
		}
		q.add(time.Since(t0))
		res.encodeBytes = len(b)
	}
	res.encodeUs = quantile(q, 0.5) * 1000
	return res, nil
}

type walResult struct {
	appendUs, bytesPerObs float64
	sync                  samples
}

// walReplay appends the decoded batches to a scratch log as the daemon
// journals them and syncs after each.
func walReplay(dir string, batches [][]hotpaths.Observation) (*walResult, error) {
	log, err := wal.Open(dir, wal.Options{FsyncInterval: -1})
	if err != nil {
		return nil, err
	}
	defer log.Close()
	res := &walResult{}
	var appendDur time.Duration
	n := 0
	for _, b := range batches {
		recs := make([]wal.Record, len(b))
		for i, o := range b {
			recs[i] = wal.Record{Kind: wal.KindObserve, ObjectID: int64(o.ObjectID), T: o.T, X: o.X, Y: o.Y}
		}
		t0 := time.Now()
		if _, err := log.AppendBatch(recs); err != nil {
			return nil, err
		}
		t1 := time.Now()
		if err := log.Sync(); err != nil {
			return nil, err
		}
		appendDur += t1.Sub(t0)
		res.sync.add(time.Since(t1))
		n += len(b)
	}
	res.appendUs = us(appendDur) / float64(n)
	res.bytesPerObs = float64(log.Stats().Bytes) / float64(n)
	return res, nil
}

type durableResult struct {
	dir         string
	ckpt        samples
	ckptTotalMs float64
	ckptBytes   int64
}

// durableReplay feeds the input to a journaled Engine and checkpoints it
// at every epoch boundary: the daemon checkpoints only every W
// timestamps, but the same state sizes at ten times the samples.
func durableReplay(dir string, sv servedRun) (*durableResult, error) {
	d, err := hotpaths.OpenDurable(dir, hotpaths.DurableConfig{
		Config: pipelineConfig, Concurrent: true, CheckpointEvery: -1,
	})
	if err != nil {
		return nil, err
	}
	res := &durableResult{dir: dir}
	err = replay(sv.kind, sv.seed, sv.timestamps, func(t int64, obs []hotpaths.ObservationJSON) error {
		batch := make([]hotpaths.Observation, len(obs))
		for i, o := range obs {
			batch[i] = o.Observation()
		}
		if err := d.ObserveBatch(batch); err != nil {
			return err
		}
		if err := d.Tick(t); err != nil {
			return err
		}
		if t%pipelineConfig.Epoch == 0 {
			t0 := time.Now()
			if _, err := d.Checkpoint(); err != nil {
				return err
			}
			res.ckpt.add(time.Since(t0))
		}
		return nil
	})
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("Durable replay: %w", err)
	}
	// The daemon checkpoints once every W timestamps.
	res.ckptTotalMs = quantile(res.ckpt, 0.5) * float64(sv.timestamps/pipelineConfig.W)
	// Close writes a final checkpoint; its file is the newest.
	files, err := filepath.Glob(filepath.Join(dir, "ckpt-*.ckpt"))
	if err != nil || len(files) == 0 {
		return nil, fmt.Errorf("no checkpoint files in %s", dir)
	}
	sort.Strings(files)
	fi, err := os.Stat(files[len(files)-1])
	if err != nil {
		return nil, err
	}
	res.ckptBytes = fi.Size()
	return res, nil
}

// gatewayLayers measures a partition leg, the gateway merge and the
// merged-view cache. fleet-read uses its own fleet and timed phase; the
// ingest workloads stand up a probe fleet over the first timestamps of
// their input.
func gatewayLayers(ctx context.Context, o options, r *report, sup *supervisor, sv servedRun) error {
	fl := sv.fleet
	var next func() []byte
	if fl == nil {
		var err error
		if fl, err = startFleet(ctx, o, sup); err != nil {
			return err
		}
		defer fl.kill()
		const pre = 100
		bodies, _, err := pregen(sv.kind, sv.seed, pre+probeCycles)
		if err != nil {
			return err
		}
		c := newConn()
		err = preload(ctx, c, &r.ops, fl.gw.url, bodies[:pre])
		c.close()
		if err != nil {
			return err
		}
		rest := bodies[pre:]
		next = func() []byte { b := rest[0]; rest = rest[1:]; return b }
	} else {
		next = func() []byte { return sv.feed.next().body }
	}

	gwBefore, err := scrape(ctx, fl.gw.url)
	if err != nil {
		return err
	}
	c := newConn()
	defer c.close()
	var leg samples
	for i := 0; i < probeCycles; i++ {
		if rep, err := c.do(ctx, &r.ops, "POST", fl.gw.url+"/observe", next()); !good(rep, err) {
			return fmt.Errorf("gateway probe write: %v %s", err, rep.body)
		}
		if i%2 == 0 {
			// The request the gateway fans out, straight to one partition.
			t0 := time.Now()
			if rep, err := c.do(ctx, &r.ops, "GET", fl.parts[i/2%fleetPartitions].url+"/paths", nil); good(rep, err) {
				leg.add(time.Since(t0))
			}
			continue
		}
		for j := 0; j < 5; j++ {
			c.do(ctx, &r.ops, "GET", fl.gw.url+"/topk", nil)
		}
	}
	gwAfter, err := scrape(ctx, fl.gw.url)
	if err != nil {
		return err
	}
	lm := median(leg)
	r.add("gateway.leg_ms", "ms", lm.value, "partition GET /paths right after a write, "+lm.String())

	// Merge time and cache hits: fleet-read's timed phase, else the probe.
	b, a := [][]promSample{gwBefore}, [][]promSample{gwAfter}
	what := "probe cycles"
	if sv.fleet != nil {
		b, a = sv.fleetBefore[fleetPartitions:], sv.fleetAfter[fleetPartitions:]
		what = "the timed phase"
	}
	merge, merges := histMean(b, a, "hotpathsgw_merge_seconds", "")
	reads := 0.0
	for _, route := range []string{`route="/topk"`, `route="/paths"`} {
		reads += promSum(a[0], "hotpathsgw_http_requests_total", route) - promSum(b[0], "hotpathsgw_http_requests_total", route)
	}
	if merges == 0 || reads == 0 {
		return fmt.Errorf("gateway /metrics show %d merges for %g reads", merges, reads)
	}
	r.add("gateway.merge_ms", "ms", merge*1000, fmt.Sprintf("mean of %d merges in %s (hotpathsgw_merge_seconds)", merges, what))
	r.add("gateway.cache_hit_ratio", "ratio", 1-float64(merges)/reads, fmt.Sprintf("1 - %d merges / %g reads in %s", merges, reads, what))
	return nil
}
