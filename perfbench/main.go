// Command perfbench is the repository's end-to-end benchmark. It starts
// the real hotpathsd and hotpathsgw binaries, drives them over loopback
// from this one process with at most two connections, checks their
// answers against an in-process hotpaths.System fed the same generated
// input, and prints the end-to-end metrics. With -trace 1 it instead
// prints per-layer metrics: the same served run with the daemons'
// /metrics scraped before and after, plus an in-process replay of the
// generated input through the library's layers, each call wrapped in the
// benchmark's own spans.
//
// Usage (normally through run.sh, which builds the binaries first):
//
//	perfbench -bin DIR -work DIR --workload athens-wal --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}.
// A failed correctness check exits 1 without printing it.
package main

import (
	"context"
	"crypto/sha256"
	"debug/buildinfo"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// options are the run's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	bin      string
	work     string
}

func (o options) hotpathsd() string  { return filepath.Join(o.bin, "hotpathsd") }
func (o options) hotpathsgw() string { return filepath.Join(o.bin, "hotpathsgw") }

// metric is one reported number.
type metric struct {
	name   string
	unit   string
	value  float64
	detail string // percentile and sample count, or how it was derived
	gated  bool   // listed in BENCHMARK.json and the JSON result line
}

// report collects one run's output.
type report struct {
	metrics []metric
	props   []metric // measured workload properties
	notes   []string // cross-checks and validity lines
	short   []string // percentiles the run had too few samples for
	ops     tally
}

// add reports a metric that BENCHMARK.json lists.
func (r *report) add(name, unit string, v float64, detail string) {
	r.metrics = append(r.metrics, metric{name, unit, v, detail, true})
}

// show reports a metric that is printed but not gated: its run-to-run
// spread on a small shared host is wider than any bound it could take.
func (r *report) show(name, unit string, v float64, detail string) {
	r.metrics = append(r.metrics, metric{name, unit, v, detail, false})
}

func (r *report) prop(name, unit string, v float64, detail string) {
	r.props = append(r.props, metric{name, unit, v, detail, false})
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// addStat adds a gated timing metric from a stat, showStat an ungated
// one. A percentile with fewer than ten samples beyond it is recorded as
// a shortfall, which fails the run once everything else is reported.
func (r *report) addStat(name string, s stat) {
	r.checkStat(name, s)
	r.add(name, "ms", s.value, s.String())
}

func (r *report) showStat(name string, s stat) {
	r.checkStat(name, s)
	r.show(name, "ms", s.value, s.String())
}

func (r *report) checkStat(name string, s stat) {
	if !s.supported() {
		r.short = append(r.short, fmt.Sprintf("%s: %s leaves fewer than ten samples beyond it", name, s))
	}
}

var workloads = map[string]func(context.Context, options, *report) error{
	"athens-wal": func(ctx context.Context, o options, r *report) error { return runIngest(ctx, o, r, "athens", true) },
	"convoy-mem": func(ctx context.Context, o options, r *report) error { return runIngest(ctx, o, r, "convoy", false) },
	"fleet-read": runFleet,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: athens-wal, convoy-mem or fleet-read")
	fs.Int64Var(&o.seed, "seed", 1, "input generator seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase")
	fs.IntVar(&trace, "trace", 0, "1 = per-layer traced run, 0 = end-to-end run")
	fs.StringVar(&o.bin, "bin", ".bench_build/bin", "directory holding hotpathsd and hotpathsgw")
	fs.StringVar(&o.work, "work", ".bench_build/run", "scratch directory for logs and WAL directories")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	fn, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload athens-wal|convoy-mem|fleet-read, --seconds > 0, --trace 0|1\n")
		return 2
	}
	for _, b := range []string{o.hotpathsd(), o.hotpathsgw()} {
		if _, err := os.Stat(b); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v (build the binaries with run.sh)\n", err)
			return 2
		}
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	work, err := os.MkdirTemp(o.work, o.workload+"-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	o.work = work
	defer os.RemoveAll(work)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Fprintf(stdout, "# workload %s seed %d seconds %g trace %d\n", o.workload, o.seed, o.seconds, trace)
	fmt.Fprintf(stdout, "# host nproc=%d GOMAXPROCS=%d go=%s sut=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), sutRevision(o))
	var r report
	cpu0 := readCPUStat()
	err = fn(ctx, o, &r)
	if cpu1 := readCPUStat(); cpu0.total > 0 && cpu1.total > cpu0.total {
		d := float64(cpu1.total - cpu0.total)
		r.prop("host_busy_share", "ratio", float64(cpu1.busy-cpu0.busy)/d, "share of host CPU time busy during the run, all processes")
		r.prop("host_steal_share", "ratio", float64(cpu1.steal-cpu0.steal)/d, "share of CPU time the hypervisor gave to other guests")
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		for _, f := range r.ops.first {
			fmt.Fprintf(os.Stderr, "perfbench: failure: %s\n", f)
		}
		return 1
	}
	attempted, failed := r.ops.counts()
	if attempted == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: no operations attempted\n")
		return 1
	}
	for _, p := range r.props {
		fmt.Fprintf(stdout, "property %-28s %14.6g %-8s %s\n", p.name, p.value, p.unit, p.detail)
	}
	for _, n := range r.notes {
		fmt.Fprintf(stdout, "note %s\n", n)
	}
	fmt.Fprintf(stdout, "ops attempted=%d failed=%d error_ratio=%g\n", attempted, failed, float64(failed)/float64(attempted))
	for _, f := range r.ops.first {
		fmt.Fprintf(stdout, "failure %s\n", f)
	}
	if len(r.short) > 0 {
		for _, s := range r.short {
			fmt.Fprintf(os.Stderr, "perfbench: %s\n", s)
		}
		return 1
	}
	out := map[string]any{}
	for _, m := range r.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is not a number (%s)\n", m.name, m.detail)
			return 1
		}
		kind := "extra "
		if m.gated {
			kind = "metric"
			out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
		}
		fmt.Fprintf(stdout, "%s %-34s %14.6g %-6s %s\n", kind, m.name, m.value, m.unit, m.detail)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   true,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   out,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// sutRevision identifies the SUT binaries: the VCS revision stamped at
// build time when there is one, else a hash of the two binaries.
func sutRevision(o options) string {
	if bi, err := buildinfo.ReadFile(o.hotpathsd()); err == nil {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	h := sha256.New()
	for _, b := range []string{o.hotpathsd(), o.hotpathsgw()} {
		f, err := os.Open(b)
		if err != nil {
			return "unknown"
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "unknown"
		}
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// since is a duration in milliseconds.
func since(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// cpuStat is the aggregate line of /proc/stat, in clock ticks.
type cpuStat struct{ total, busy, steal uint64 }

// readCPUStat reads /proc/stat; zero when it is unavailable.
func readCPUStat() cpuStat {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuStat{}
	}
	var st cpuStat
	for i, x := range f[1:] {
		v, err := strconv.ParseUint(x, 10, 64)
		if err != nil {
			return cpuStat{}
		}
		st.total += v
		switch i {
		case 3, 4: // idle, iowait
		case 7:
			st.steal = v
			st.busy += v
		default:
			st.busy += v
		}
	}
	return st
}
