package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// setupRepeats is how many times a single-daemon run sets its SUT up
// from scratch; setup_s is the median, and the last set-up is the one
// measured. A set-up takes milliseconds, so many are cheap.
const setupRepeats = 9

// restartRepeats is how many SIGKILL/restart cycles a run makes.
// recover_s is the fastest: a restart does the same work every time, and
// what varies between them — fsync stalls on a shared disk, CPU taken by
// other tenants — only ever adds time.
const restartRepeats = 7

// tickBody is the POST /tick body for timestamp t.
func tickBody(t int64) []byte { return []byte(`{"now":` + strconv.FormatInt(t, 10) + `}`) }

// runIngest runs athens-wal (walMode, kind "athens") or convoy-mem (kind
// "convoy"): one hotpathsd, a closed-loop writer posting one observe
// batch and one tick per timestamp plus a /topk read after every
// epoch-closing tick, and a second connection holding /watch open.
func runIngest(ctx context.Context, o options, r *report, kind string, walMode bool) error {
	var sup supervisor
	defer sup.killAll()
	feed, err := startFeeder(kind, o.seed, false, 1)
	if err != nil {
		return err
	}
	defer feed.close()
	feed.primed()

	walDir := filepath.Join(o.work, "wal")
	args := append([]string(nil), sutFlags...)
	if walMode {
		args = append(args, "-wal", walDir)
	}

	// Set up several times from scratch: launch to /watch baseline.
	var (
		d      *proc
		w      *watcher
		setups []float64
	)
	for i := 0; i < setupRepeats; i++ {
		if err := os.RemoveAll(walDir); err != nil {
			return err
		}
		t0 := time.Now()
		if d, err = sup.launch(ctx, "hotpathsd", o.hotpathsd(), o.work, args...); err != nil {
			return err
		}
		if w, err = startWatch(ctx, d.url); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupRepeats-1 {
			w.close()
			d.kill()
		}
	}
	defer w.close()

	var before []promSample
	if o.trace {
		if before, err = scrape(ctx, d.url); err != nil {
			return err
		}
	}

	// Timed phase.
	wc := newConn()
	defer wc.close()
	var (
		obsLat, readLat samples
		tickSent        = map[int64]time.Time{}
		acked, bytes    int64
		lastT           int64
		genWait         time.Duration
		writeTime       time.Duration // observe + tick request time, for the traced run
		kept            [][]byte      // sampled bodies for the traced decode replay
	)
	// The phase ends at the first timestamp past the deadline that lies
	// halfway between two checkpoints, so the WAL tail a restart replays
	// is the same length in every run.
	start := time.Now()
	end := start.Add(time.Duration(o.seconds * float64(time.Second)))
	for time.Now().Before(end) || lastT%pipelineConfig.W != pipelineConfig.W/2 {
		g0 := time.Now()
		s := feed.next()
		genWait += time.Since(g0)

		t0 := time.Now()
		rep, err := wc.do(ctx, &r.ops, "POST", d.url+"/observe", s.body)
		if !good(rep, err) {
			return fmt.Errorf("POST /observe at t=%d failed: %v %s", s.t, err, rep.body)
		}
		obsLat.add(time.Since(t0))
		acked += int64(s.n)
		bytes += int64(len(s.body))
		if o.trace && s.t%8 == 0 && len(kept) < 128 {
			kept = append(kept, s.body)
		}

		t1 := time.Now()
		rep, err = wc.do(ctx, &r.ops, "POST", d.url+"/tick", tickBody(s.t))
		if !good(rep, err) {
			return fmt.Errorf("POST /tick %d failed: %v %s", s.t, err, rep.body)
		}
		writeTime += time.Since(t0)
		lastT = s.t
		if s.t%pipelineConfig.Epoch == 0 {
			tickSent[s.t] = t1
			t2 := time.Now()
			if rep, err := wc.do(ctx, &r.ops, "GET", d.url+"/topk", nil); good(rep, err) {
				readLat.add(time.Since(t2))
			}
		}
	}
	wall := time.Since(start)

	// Epoch visibility: each epoch-closing tick's /watch delta.
	var epochLat samples
	waitUntil := time.Now().Add(5 * time.Second)
	for t := pipelineConfig.Epoch; t <= lastT; t += pipelineConfig.Epoch {
		at, ok := w.arrival(t, time.Until(waitUntil))
		if !ok {
			r.ops.fail("no /watch delta for the epoch closed at t=%d", t)
			continue
		}
		r.ops.ok()
		epochLat.add(at.Sub(tickSent[t]))
	}
	d.sampleHWM()

	var after []promSample
	if o.trace {
		if after, err = scrape(ctx, d.url); err != nil {
			return err
		}
	}

	// Correctness: the daemon against an in-process System fed the same
	// input.
	var lay *layers
	if o.trace {
		lay = &layers{}
	}
	ref, err := reference(kind, o.seed, lastT, lay)
	if err != nil {
		return err
	}
	want := singleAnswers(ref)
	st, err := checkAnswers(ctx, d.url, want)
	if err != nil {
		return err
	}

	r.prop("timestamps", "count", float64(lastT), "timestamps sent in the timed phase")
	r.prop("epochs", "count", float64(st.Epoch), "epoch boundaries processed")
	r.prop("obs_per_request", "obs", float64(acked)/float64(lastT), "observations per POST /observe")
	r.prop("report_ratio", "ratio", float64(st.Reports)/float64(st.Observations), fmt.Sprintf("%d reports / %d observations", st.Reports, st.Observations))
	r.prop("live_paths", "count", float64(st.IndexSize), "index size at the end")
	r.prop("body_bytes_per_obs", "B", float64(bytes)/float64(acked), "POST /observe body bytes per observation")
	genShare := genWait.Seconds() / wall.Seconds()
	r.note("generator waited %.3f%% of the timed phase for input synthesis; run_valid=%v", 100*genShare, genShare < 0.01)

	// Restarts: SIGKILL, relaunch on the same state, first /healthz 200.
	// With -wal the restarted daemon must answer exactly as before. A
	// recovered daemon re-checkpoints, so the journal as SIGKILL left it is
	// frozen once and put back before every later restart: each one
	// replays the same WAL tail.
	if walMode {
		// Let the 25 ms group commit cover the last acknowledged writes.
		time.Sleep(150 * time.Millisecond)
	}
	rss := float64(d.hwm)
	frozen := walDir + ".frozen"
	var recovers []float64
	for i := 0; i < restartRepeats; i++ {
		t0 := time.Now()
		d.kill()
		killed := time.Since(t0)
		if walMode {
			if i == 0 {
				err = copyDir(walDir, frozen)
			} else if err = os.RemoveAll(walDir); err == nil {
				err = copyDir(frozen, walDir)
			}
			if err != nil {
				return err
			}
		}
		t1 := time.Now()
		if d, err = sup.launch(ctx, "hotpathsd", o.hotpathsd(), o.work, args...); err != nil {
			return err
		}
		recovers = append(recovers, (killed + time.Since(t1)).Seconds())
		if walMode {
			if _, err := checkAnswers(ctx, d.url, want); err != nil {
				return fmt.Errorf("after SIGKILL and WAL recovery: %w", err)
			}
		}
	}
	d.kill()

	if o.trace {
		sv := servedRun{
			kind: kind, seed: o.seed, timestamps: lastT, acked: acked,
			writeTime: writeTime, bodies: kept, before: before, after: after,
		}
		if walMode {
			sv.walDir = frozen
		}
		return traceLayers(ctx, o, r, &sup, sv, lay)
	}

	r.add("ingest_obs_per_s", "obs/s", float64(acked)/wall.Seconds(), fmt.Sprintf("%d acknowledged observations in %.2fs", acked, wall.Seconds()))
	r.addStat("observe_p50_ms", median(obsLat))
	r.showStat("observe_p99_ms", pct(obsLat, 0.99))
	r.addStat("epoch_p50_ms", median(epochLat))
	r.showStat("epoch_p90_ms", pct(epochLat, 0.90))
	r.addStat("read_p50_ms", median(readLat))
	r.showStat("read_p90_ms", pct(readLat, 0.90))
	r.show("recover_s", "s", quantile(recovers, 0), fmt.Sprintf("fastest of %d SIGKILL-to-healthy restarts", len(recovers)))
	r.add("setup_s", "s", quantile(setups, 0.5), fmt.Sprintf("median of %d set-ups", len(setups)))
	r.add("sut_rss_mb", "MB", rss/(1<<20), "peak VmHWM of hotpathsd")
	return nil
}

// copyDir copies the regular files of a flat directory and syncs them,
// so no dirty pages of the copy are left to be written back while a
// restart is timed.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			return fmt.Errorf("copy %s: %s is not a regular file", src, e.Name())
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	d, err := os.Open(dst)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

func copyFile(src, dst string) error {
	b, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	f, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
