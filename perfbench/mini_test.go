package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

var (
	buildOnce sync.Once
	binDir    string
	buildErr  error
)

// sutBinaries builds hotpathsd and hotpathsgw from this source tree once
// per test binary.
func sutBinaries(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		binDir, buildErr = os.MkdirTemp("", "perfbench-bin-")
		if buildErr != nil {
			return
		}
		for _, cmd := range []string{"hotpathsd", "hotpathsgw"} {
			out, err := exec.Command("go", "build", "-o", filepath.Join(binDir, cmd), "hotpaths/cmd/"+cmd).CombinedOutput()
			if err != nil {
				buildErr = err
				binDir = string(out)
				return
			}
		}
	})
	if buildErr != nil {
		t.Fatalf("build SUT: %v\n%s", buildErr, binDir)
	}
	return binDir
}

func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" && buildErr == nil {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// benchmarkFile is the part of BENCHMARK.json the tests read.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct{ Name string } `json:"end_to_end"`
	PerLayer  []struct{ Name string } `json:"per_layer"`
}

func loadBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func names[T any](xs []T, name func(T) string) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = name(x)
	}
	sort.Strings(out)
	return out
}

// TestMiniatures runs every workload, untraced and traced, for a few
// seconds or less against freshly built binaries. It checks the plumbing — the
// correctness checks pass, nothing fails, every metric BENCHMARK.json
// names is reported — and asserts no timings.
func TestMiniatures(t *testing.T) {
	if testing.Short() {
		t.Skip("starts real daemons")
	}
	bin := sutBinaries(t)
	bf := loadBenchmark(t)
	byName := func(x struct{ Name string }) string { return x.Name }
	if got, want := names(bf.Workloads, byName), names(keys(workloads), func(s string) string { return s }); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("BENCHMARK.json workloads %q, benchmark implements %q", got, want)
	}
	for _, wl := range names(bf.Workloads, byName) {
		for _, trace := range []bool{false, true} {
			name := wl
			want := names(bf.EndToEnd, byName)
			if trace {
				name += "/traced"
				want = names(bf.PerLayer, byName)
			}
			t.Run(name, func(t *testing.T) {
				// fleet-read writes 5 timestamps/s and needs an epoch
				// boundary inside the timed phase.
				secs := 0.5
				if wl == "fleet-read" {
					secs = 3
				}
				o := options{workload: wl, seed: 3, seconds: secs, trace: trace, bin: bin, work: t.TempDir()}
				var r report
				if err := workloads[wl](context.Background(), o, &r); err != nil {
					t.Fatal(err)
				}
				var gated []metric
				for _, m := range r.metrics {
					if m.gated {
						gated = append(gated, m)
					}
				}
				got := names(gated, func(m metric) string { return m.name })
				if strings.Join(got, ",") != strings.Join(want, ",") {
					t.Errorf("metrics\n got %q\nwant %q", got, want)
				}
				if a, f := r.ops.counts(); a == 0 || f != 0 {
					t.Errorf("attempted=%d failed=%d (%q)", a, f, r.ops.first)
				}
			})
		}
	}
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestCheckCatchesDivergence feeds a real daemon and compares it with a
// reference that saw one timestamp less: the check must fail.
func TestCheckCatchesDivergence(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a real daemon")
	}
	bin := sutBinaries(t)
	ctx := context.Background()
	var sup supervisor
	defer sup.killAll()
	d, err := sup.launch(ctx, "hotpathsd", filepath.Join(bin, "hotpathsd"), t.TempDir(), sutFlags...)
	if err != nil {
		t.Fatal(err)
	}
	bodies, _, err := pregen("athens", 4, 40)
	if err != nil {
		t.Fatal(err)
	}
	c := newConn()
	defer c.close()
	var tl tally
	if err := preload(ctx, c, &tl, d.url, bodies); err != nil {
		t.Fatal(err)
	}
	ref, err := reference("athens", 4, 40, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checkAnswers(ctx, d.url, singleAnswers(ref)); err != nil {
		t.Fatalf("matching reference rejected: %v", err)
	}
	short, err := reference("athens", 4, 39, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checkAnswers(ctx, d.url, singleAnswers(short)); err == nil {
		t.Fatal("a reference one timestamp behind passed the check")
	}
	systems, err := fleetReference("athens", 4, 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checkAnswers(ctx, d.url, fleetAnswers(systems)); err != nil {
		t.Fatalf("a one-partition fleet reference must equal the single daemon: %v", err)
	}
}

func TestRunRejectsMissingBinaries(t *testing.T) {
	var out bytes.Buffer
	code := run([]string{"-bin", t.TempDir(), "-work", t.TempDir(), "--workload", "convoy-mem", "--seed", "1", "--seconds", "1", "--trace", "0"}, &out)
	if code == 0 || strings.Contains(out.String(), `"correct"`) {
		t.Fatalf("exit %d with output %q", code, out.String())
	}
	if code := run([]string{"--workload", "nope"}, &out); code == 0 {
		t.Fatal("unknown workload accepted")
	}
}
