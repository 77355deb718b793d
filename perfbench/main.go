// Command perfbench is the repository's end-to-end benchmark. One process
// builds its inputs from --seed, runs one workload for --seconds, checks
// every answer against a standalone computation and prints its metrics as
// one JSON object on the last line of standard output:
//
//	bash perfbench/run.sh --workload speedup --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the object holds the end-to-end metrics, measured with
// tracing off. With --trace 1 the run measures once untraced and once
// traced, then replays a sample of the workload's requests one layer down
// at a time (the layer ladder) and prints the per-layer metrics, each
// rung's time and the tracing overhead; the spans go to
// .bench_build/traces. README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// nprocCap is the machine size the load is sized for: at most this many
// worker threads step walks (GOMAXPROCS and every Workers option).
const nprocCap = 2

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics every workload reports, with their
// units; BENCHMARK.json declares the same names.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"walker_steps_per_s", "1/s"},
	{"qps", "1/s"},
	{"max_qps", "1/s"},
	{"p50_ms", "ms"},
	{"heavy_p50_ms", "ms"},
}

// perLayer lists the per-layer metrics a traced run reports.
var perLayer = []struct{ name, unit string }{
	{"graph.build_s", "s"},
	{"walk.compile_s", "s"},
	{"walk.compiles", "count"},
	{"walk.step.ns_per_walker_step", "ns"},
	{"walk.grouped.ns_per_walker_step", "ns"},
	{"walk.grouped.pass_s", "s"},
	{"walk.grouped.scaling", "ratio"},
	{"walk.estimate.trials_used", "count"},
	{"walk.estimate.waves", "count"},
	{"walk.estimate.overhead_s", "s"},
	{"serve.wait_ms", "ms"},
	{"serve.lanes_per_pass", "count"},
	{"serve.overloaded", "count"},
	{"serve.engine_misses", "count"},
	{"httpapi.overhead_ms", "ms"},
	{"httpapi.bytes_per_req", "bytes"},
	{"cluster.overhead_ms", "ms"},
	{"cluster.max_replica_share", "ratio"},
	{"cluster.failovers", "count"},
	{"cluster.unrouted", "count"},
	{"load.late_ms", "ms"},
	{"load.p99_ms", "ms"},
	{"ladder.step_ms", "ms"},
	{"ladder.grouped_ms", "ms"},
	{"ladder.estimate_ms", "ms"},
	{"ladder.serve_ms", "ms"},
	{"ladder.httpapi_ms", "ms"},
	{"ladder.cluster_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"host.probe_ns", "ns"},
}

// config is one run's command line plus the machine facts derived from it.
type config struct {
	workload string
	seed     uint64
	window   time.Duration // measured time of one (untraced or traced) phase
	workers  int           // GOMAXPROCS and every Workers option
	log      io.Writer     // human-readable progress; never the result line
	host     *hostClock    // probe samples taken between units of work
}

// workload is one traffic mix. setup builds the system under test and is
// called several times; measure runs the timed window and checks every
// answer; layers replays a sample of the last measured window through the
// layer ladder. close releases what the last setup built.
type workload interface {
	setup() error
	measure(window time.Duration, tr *tracer, tl *tally) (map[string]float64, error)
	layers(tr *tracer, tl *tally) (map[string]float64, error)
	close()
	// headline names the end-to-end metric the tracing overhead is taken
	// on.
	headline() string
	// hostScaled names the end-to-end metrics that time work on the
	// machine's cores; they are reported at the reference host speed.
	hostScaled() scaling
}

var workloads = map[string]func(cfg config) workload{
	"speedup": newSpeedup,
	"serve":   newServe,
	"fleet":   newFleet,
}

// setupRepeats is how many times a run sets up its system; setup_s is the
// median.
const setupRepeats = 9

func main() {
	rep, err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(args []string, stdout, stderr io.Writer) (report, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "speedup, serve or fleet")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "measured seconds")
	trace := fs.Int("trace", 0, "1: traced run with the layer ladder")
	if err := fs.Parse(args); err != nil {
		return report{}, err
	}
	mk, ok := workloads[*name]
	if !ok {
		return report{}, fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return report{}, fmt.Errorf("want --seconds > 0 and --trace 0 or 1")
	}
	workers := runtime.NumCPU()
	if workers > nprocCap {
		workers = nprocCap
	}
	runtime.GOMAXPROCS(workers)
	cfg := config{workload: *name, seed: *seed, workers: workers, log: stdout,
		window: time.Duration(*seconds * float64(time.Second)), host: &hostClock{workers: workers}}
	env := describeEnv(cfg)
	envLine, _ := json.Marshal(map[string]any{"env": env})
	fmt.Fprintln(stdout, string(envLine))

	w := mk(cfg)
	setup, err := setupMedian(w, cfg.host)
	if err != nil {
		return report{}, err
	}
	defer w.close()
	tl := &tally{}
	rep := report{Metrics: map[string]metric{}}
	if *trace == 0 {
		m, err := w.measure(cfg.window, nil, tl)
		if err != nil {
			return report{}, err
		}
		m["setup_s"] = setup
		toReference(stdout, m, w.hostScaled(), cfg.host)
		if err := collect(rep, m, endToEnd); err != nil {
			return report{}, err
		}
	} else {
		half := cfg.window / 2
		plain, err := w.measure(half, nil, tl)
		if err != nil {
			return report{}, err
		}
		probeNs, _, _ := cfg.host.stats()
		toReference(stdout, plain, w.hostScaled(), cfg.host)
		cfg.host.reset()
		tr := newTracer()
		traced, err := w.measure(half, tr, tl)
		if err != nil {
			return report{}, err
		}
		toReference(stdout, traced, w.hostScaled(), cfg.host)
		m, err := w.layers(tr, tl)
		if err != nil {
			return report{}, err
		}
		h := w.headline()
		m["trace.overhead_pct"] = 100 * (traced[h] - plain[h]) / plain[h]
		m["host.probe_ns"] = probeNs
		m["load.p99_ms"] = plain["p99_ms"]
		fmt.Fprintf(stdout, "tracing overhead on %s: untraced %.4g, traced %.4g\n", h, plain[h], traced[h])
		if err := collect(rep, m, perLayer); err != nil {
			return report{}, err
		}
		path, err := tr.write(cfg, env)
		if err != nil {
			return report{}, err
		}
		fmt.Fprintf(stdout, "trace: %d spans (%d dropped) in %s\n", tr.count(), tr.dropped.Load(), path)
	}
	rep.Attempted, rep.Failed = tl.attempted.Load(), tl.failed.Load()
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0
	for _, r := range tl.firstFailures() {
		fmt.Fprintln(stdout, "failed:", r)
	}
	return rep, nil
}

// toReference rescales the metrics of m that sc names from the run's host
// to the reference host: a time is divided by the host factor, a rate
// multiplied by it. It logs the factors and the metrics as measured.
func toReference(log io.Writer, m map[string]float64, sc scaling, host *hostClock) {
	median, avg, n := host.stats()
	fmt.Fprintf(log, "host: probe %.3f ns/step median, %.3f mean over %d samples; as measured: %s\n",
		median, avg, n, joinf(m))
	toReferenceBy(m, sc.stretch, avg)
	toReferenceBy(m, sc.request, median)
}

// toReferenceBy rescales the named metrics of m from a host whose probe
// read probeNs per step to the reference host.
func toReferenceBy(m map[string]float64, names []string, probeNs float64) {
	f := probeNs / probeRefNs
	for _, name := range names {
		if unitOf(name) == "1/s" {
			m[name] *= f
		} else {
			m[name] /= f
		}
	}
}

func unitOf(name string) string {
	for _, e := range endToEnd {
		if e.name == name {
			return e.unit
		}
	}
	panic("no end-to-end metric " + name)
}

// collect copies the named metrics from m into rep, refusing a missing
// one or one that is not a finite number.
func collect(rep report, m map[string]float64, names []struct{ name, unit string }) error {
	for _, n := range names {
		v, ok := m[n.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s not measured (%v)", n.name, v)
		}
		rep.Metrics[n.name] = metric{v, n.unit}
	}
	return nil
}

// setupMedian sets the workload up setupRepeats times, keeping the last
// system, and returns the median set-up time in seconds.
func setupMedian(w workload, host *hostClock) (float64, error) {
	times := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			w.close()
		}
		host.sample()
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return quantile(times, 0.5), nil
}

// tally counts operations attempted and failed. An operation fails when it
// errs, is refused, misses its deadline or returns a wrong answer.
type tally struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	reasons           []string
}

const keptFailures = 8

// check counts one operation, failed unless ok; why describes the failure.
func (t *tally) check(ok bool, why func() string) {
	t.attempted.Add(1)
	if ok {
		return
	}
	t.failed.Add(1)
	t.mu.Lock()
	if len(t.reasons) < keptFailures {
		t.reasons = append(t.reasons, why())
	}
	t.mu.Unlock()
}

func (t *tally) firstFailures() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.reasons...)
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics; NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return nan
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	f := pos - float64(lo)
	if f == 0 {
		return s[lo]
	}
	return s[lo]*(1-f) + s[lo+1]*f
}

// tailWindow is the span a serve or fleet latency quantile is taken over:
// the phase's value is the median over its windows, so a stall of the
// machine moves the windows it falls in, not the phase.
const tailWindow = 500 * time.Millisecond

// windowed groups latencies xs by the time each was due (at) into windows
// of span and returns the median of the windows' q-quantiles.
func windowed(xs []float64, at []time.Duration, q float64, span time.Duration) float64 {
	windows := map[int][]float64{}
	for i, x := range xs {
		w := int(at[i] / span)
		windows[w] = append(windows[w], x)
	}
	var qs []float64
	for _, w := range windows {
		qs = append(qs, quantile(w, q))
	}
	return quantile(qs, 0.5)
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// joinf renders a metric map for the progress log, sorted by name.
func joinf(m map[string]float64) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%.4g", k, m[k])
	}
	return strings.Join(parts, " ")
}
