package main

import (
	"context"
	"fmt"
	"hotpaths"
	"math/rand"
	"strings"
	"sync"
	"time"
)

const (
	fleetPartitions = 4
	fleetPreload    = 300                    // timestamps loaded before the timed phase
	fleetWriteEvery = 200 * time.Millisecond // 5 timestamps/s
	fleetReadEvery  = 10 * time.Millisecond  // 100 reads/s
	fleetSetups     = 3                      // each one preloads 300 timestamps
	viewport        = 1000.0                 // bbox side, metres
)

// fleet is a running partitioned deployment: the partitions' daemons
// and the gateway in front of them.
type fleet struct {
	parts []*proc
	gw    *proc
}

func (f *fleet) procs() []*proc { return append(append([]*proc(nil), f.parts...), f.gw) }

// startFleet launches fleetPartitions in-memory partitions and a gateway
// over them.
func startFleet(ctx context.Context, o options, sup *supervisor) (*fleet, error) {
	f := &fleet{}
	urls := make([]string, fleetPartitions)
	for i := 0; i < fleetPartitions; i++ {
		args := append(append([]string(nil), sutFlags...),
			"-partition-count", fmt.Sprint(fleetPartitions), "-partition-id", fmt.Sprint(i))
		p, err := sup.launch(ctx, fmt.Sprintf("part%d", i), o.hotpathsd(), o.work, args...)
		if err != nil {
			return nil, err
		}
		f.parts = append(f.parts, p)
		urls[i] = p.url
	}
	gw, err := sup.launch(ctx, "gateway", o.hotpathsgw(), o.work,
		"-partitions", strings.Join(urls, ","), "-k", fmt.Sprint(pipelineConfig.K))
	if err != nil {
		return nil, err
	}
	f.gw = gw
	return f, nil
}

// kill stops every process of the fleet at once.
func (f *fleet) kill() {
	for _, p := range f.procs() {
		p.kill()
	}
}

// preload writes the given bodies (observe with inline tick) through the
// gateway, closed loop on one connection.
func preload(ctx context.Context, c *conn, ops *tally, url string, bodies [][]byte) error {
	for i, b := range bodies {
		rep, err := c.do(ctx, ops, "POST", url+"/observe", b)
		if !good(rep, err) {
			return fmt.Errorf("preload timestamp %d: %v %s", i+1, err, rep.body)
		}
	}
	return nil
}

// pregen returns the encoded bodies of the first n timestamps, each
// closing its timestamp with an inline tick.
func pregen(kind string, seed int64, n int) ([][]byte, int64, error) {
	src, err := newSource(kind, seed)
	if err != nil {
		return nil, 0, err
	}
	var obs int64
	out := make([][]byte, n)
	for i := range out {
		s := encodeStep(int64(i+1), src.next(), int64(i+1))
		out[i] = s.body
		obs += int64(s.n)
	}
	return out, obs, nil
}

func sleepUntil(ctx context.Context, t time.Time) {
	if d := time.Until(t); d > 0 {
		select {
		case <-ctx.Done():
		case <-time.After(d):
		}
	}
}

// runFleet is fleet-read: four in-memory partitions behind hotpathsgw,
// preloaded with the first 300 timestamps of the athens input. In the
// timed phase one open-loop writer connection sends the next timestamp
// every 200 ms and one open-loop reader connection issues 100 reads/s,
// four GET /topk to one GET /paths?bbox= of a seeded 1 km viewport. A
// fresh read costs about 40 ms and a cached one about 1 ms, so the
// reader connection is about a third busy.
func runFleet(ctx context.Context, o options, r *report) error {
	const kind = "athens"
	var sup supervisor
	defer sup.killAll()
	bodies, preObs, err := pregen(kind, o.seed, fleetPreload)
	if err != nil {
		return err
	}
	feed, err := startFeeder(kind, o.seed, true, fleetPreload+1)
	if err != nil {
		return err
	}
	defer feed.close()
	feed.primed()

	var (
		fl     *fleet
		setups []float64
	)
	wc, rc := newConn(), newConn()
	defer wc.close()
	defer rc.close()
	for i := 0; i < fleetSetups; i++ {
		t0 := time.Now()
		if fl, err = startFleet(ctx, o, &sup); err != nil {
			return err
		}
		if err := preload(ctx, wc, &r.ops, fl.gw.url, bodies); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < fleetSetups-1 {
			fl.kill()
			wc.close()
		}
	}
	bodies = nil

	var before [][]promSample
	if o.trace {
		if before, err = scrapeAll(ctx, fl.procs()); err != nil {
			return err
		}
	}

	// Timed phase: two open-loop goroutines, one connection each.
	var (
		mu                sync.Mutex
		ackSeq            int
		ackAt             time.Time
		obsLat, writeSelf samples
		readLat, fresh    samples
		readSelf          samples
		acked, bytes      int64
		lastT             = int64(fleetPreload)
		genWait           time.Duration
		writeTime         time.Duration
		kept              [][]byte
		writeErr          error
	)
	start := time.Now()
	end := start.Add(time.Duration(o.seconds * float64(time.Second)))
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		prevDone := start
		for i := 0; ; i++ {
			sched := start.Add(time.Duration(i) * fleetWriteEvery)
			if !sched.Before(end) || ctx.Err() != nil {
				return
			}
			sleepUntil(ctx, sched)
			g0 := time.Now()
			s := feed.next()
			genWait += time.Since(g0)
			sent := time.Now()
			rep, err := wc.do(ctx, &r.ops, "POST", fl.gw.url+"/observe", s.body)
			done := time.Now()
			if !good(rep, err) {
				writeErr = fmt.Errorf("POST /observe at t=%d through the gateway failed: %v %s", s.t, err, rep.body)
				return
			}
			obsLat.add(done.Sub(sched))
			writeSelf.add(sent.Sub(later(sched, prevDone)))
			writeTime += done.Sub(sent)
			prevDone = done
			acked += int64(s.n)
			bytes += int64(len(s.body))
			lastT = s.t
			if o.trace && len(kept) < 64 {
				kept = append(kept, s.body)
			}
			mu.Lock()
			ackSeq++
			ackAt = done
			mu.Unlock()
		}
	}()
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(o.seed*7919 + 17))
		claimed := 0
		prevDone := start
		for j := 0; ; j++ {
			sched := start.Add(time.Duration(j) * fleetReadEvery)
			if !sched.Before(end) || ctx.Err() != nil {
				return
			}
			sleepUntil(ctx, sched)
			url := fl.gw.url + "/topk"
			if rng.Intn(5) == 4 {
				x := rng.Float64() * (pipelineConfig.Bounds.Max.X - viewport)
				y := rng.Float64() * (pipelineConfig.Bounds.Max.Y - viewport)
				url = fmt.Sprintf("%s/paths?bbox=%.0f,%.0f,%.0f,%.0f", fl.gw.url, x, y, x+viewport, y+viewport)
			}
			sent := time.Now()
			mu.Lock()
			isFresh := ackSeq > claimed && !sent.Before(ackAt)
			if isFresh {
				claimed = ackSeq
			}
			mu.Unlock()
			rep, err := rc.do(ctx, &r.ops, "GET", url, nil)
			done := time.Now()
			readSelf.add(sent.Sub(later(sched, prevDone)))
			prevDone = done
			if !good(rep, err) {
				continue
			}
			readLat.add(done.Sub(sched))
			if isFresh {
				fresh.add(done.Sub(sched))
			}
		}
	}()
	wg.Wait()
	wall := time.Since(start)
	if writeErr != nil {
		return writeErr
	}
	for _, p := range fl.procs() {
		p.sampleHWM()
	}
	var rss float64
	for _, p := range fl.procs() {
		rss += float64(p.hwm)
	}

	var after [][]promSample
	if o.trace {
		if after, err = scrapeAll(ctx, fl.procs()); err != nil {
			return err
		}
	}

	// Generator validity: how late this process itself sent requests,
	// apart from waiting on earlier answers over the same connection.
	wLate, rLate := quantile(writeSelf, 0.99), quantile(readSelf, 0.99)
	genShare := genWait.Seconds() / wall.Seconds()
	valid := wLate < 5 && rLate < 5 && genShare < 0.01
	r.prop("generator_write_late_p99_ms", "ms", wLate, fmt.Sprintf("n=%d, send delay beyond schedule and the previous answer", len(writeSelf)))
	r.prop("generator_read_late_p99_ms", "ms", rLate, fmt.Sprintf("n=%d", len(readSelf)))
	r.note("generator waited %.3f%% of the timed phase for input synthesis; run_valid=%v", 100*genShare, valid)

	var lay *layers
	if o.trace {
		lay = &layers{}
	}
	ref, err := reference(kind, o.seed, lastT, lay)
	if err != nil {
		return err
	}
	systems, err := fleetReference(kind, o.seed, lastT, fleetPartitions)
	if err != nil {
		return err
	}
	want := fleetAnswers(systems)
	st, err := checkAnswers(ctx, fl.gw.url, want)
	if err != nil {
		return err
	}
	// The partitions' coordinators never see each other's reports, so a
	// corridor one partition discovered is not reused by another and the
	// merged answer can differ from a single node's. Record by how much.
	single := singleAnswers(ref)
	r.prop("single_node_topk_shared", "count", float64(sharedIDs(want.topk, single.topk)),
		fmt.Sprintf("of %d top-k ids, shared with one System fed the whole input", len(single.topk)))
	r.prop("single_node_paths", "count", float64(single.stats.IndexSize),
		fmt.Sprintf("live paths of one System fed the whole input, against %d merged", len(want.all)))
	r.prop("timestamps", "count", float64(lastT-fleetPreload), fmt.Sprintf("timestamps sent in the timed phase, after %d preloaded", fleetPreload))
	r.prop("epochs", "count", float64(st.Epoch), "epoch boundaries processed, preload included")
	r.prop("obs_per_request", "obs", float64(acked+preObs)/float64(lastT), "observations per POST /observe")
	r.prop("report_ratio", "ratio", float64(st.Reports)/float64(st.Observations), fmt.Sprintf("%d reports / %d observations", st.Reports, st.Observations))
	r.prop("live_paths", "count", float64(len(want.all)), "merged live paths at the end")
	if acked > 0 {
		r.prop("body_bytes_per_obs", "B", float64(bytes)/float64(acked), "POST /observe body bytes per observation")
	}

	if o.trace {
		sv := servedRun{
			kind: kind, seed: o.seed, timestamps: lastT, acked: acked,
			writeTime: writeTime, bodies: kept,
			fleet: fl, feed: feed, fleetBefore: before, fleetAfter: after,
		}
		return traceLayers(ctx, o, r, &sup, sv, lay)
	}

	// Restart one partition: SIGKILL to its first /healthz 200.
	var recovers []float64
	p0 := fl.parts[0]
	args := append(append([]string(nil), sutFlags...), "-partition-count", fmt.Sprint(fleetPartitions), "-partition-id", "0")
	addr := strings.TrimPrefix(p0.url, "http://")
	for i := 0; i < restartRepeats; i++ {
		t0 := time.Now()
		p0.kill()
		if p0, err = sup.launchAt(ctx, "part0", o.hotpathsd(), addr, o.work, args...); err != nil {
			return err
		}
		recovers = append(recovers, time.Since(t0).Seconds())
	}
	r.add("ingest_obs_per_s", "obs/s", float64(acked)/wall.Seconds(), fmt.Sprintf("%d acknowledged observations in %.2fs, open loop at %v per timestamp", acked, wall.Seconds(), fleetWriteEvery))
	r.addStat("observe_p50_ms", median(obsLat))
	r.showStat("observe_p75_ms", pct(obsLat, 0.75))
	r.note("epoch_p50_ms is fresh_read_p50_ms here: the first read sent after each write ack, timed from its scheduled send")
	r.addStat("epoch_p50_ms", median(fresh))
	r.showStat("fresh_read_p75_ms", pct(fresh, 0.75))
	r.addStat("read_p50_ms", median(readLat))
	r.showStat("read_p99_ms", pct(readLat, 0.99))
	r.show("recover_s", "s", quantile(recovers, 0), fmt.Sprintf("fastest of %d SIGKILL-to-healthy partition restarts", len(recovers)))
	r.add("setup_s", "s", quantile(setups, 0.5), fmt.Sprintf("median of %d set-ups, %d-timestamp preload included", len(setups), fleetPreload))
	r.add("sut_rss_mb", "MB", rss/(1<<20), "peak VmHWM summed over 4 partitions and the gateway")
	return nil
}

// later returns the later of two instants.
func later(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// scrapeAll fetches /metrics from every process.
func scrapeAll(ctx context.Context, ps []*proc) ([][]promSample, error) {
	out := make([][]promSample, len(ps))
	for i, p := range ps {
		s, err := scrape(ctx, p.url)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// sharedIDs counts the path ids two results have in common.
func sharedIDs(a, b []hotpaths.PathJSON) int {
	ids := map[uint64]bool{}
	for _, p := range a {
		ids[p.ID] = true
	}
	n := 0
	for _, p := range b {
		if ids[p.ID] {
			n++
		}
	}
	return n
}
