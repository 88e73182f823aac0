// Command perfbench is the repository's benchmark. It deploys the
// in-process Cowbird stack with no injected fabric latency at the host's
// default GOMAXPROCS, drives one named workload against it for a fixed
// time, checks every answer, and prints one JSON result line.
//
//	bash perfbench/run.sh --workload uniform-rw --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the run measures --setups deployments in turn, each for
// an equal share of the time, and the result carries the end-to-end
// metrics. With --trace 1 the time is split between two fresh deployments:
// an untraced one (the base of driver.trace_overhead) and a traced one
// with the benchmark's spans and the engine's telemetry hub on, from which
// the per-layer metrics come. A line describing the host and the run
// precedes the result. Failures of any kind are counted in the result's
// "failed" (error_rate = failed / attempted is in the run line).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"sync/atomic"
	"time"
)

// opts are the benchmark's arguments. The seed reaches only the input
// generators; the deployment under test sees the generated operations.
type opts struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	setups   int    // untraced run: deployments measured in turn
	spanFile string // where the traced run writes its spans
}

// runFunc builds one deployment (timing the set-up), measures it for the
// given time, checks its outputs, and tears it down.
type runFunc func(o opts, traced bool, seconds float64) (*result, error)

// workloads maps each name to its driver.
var workloads = map[string]runFunc{
	"uniform-rw":   runUniform,
	"zipf-cached":  runZipf,
	"kv-ycsb":      runKV,
	"fleet-sparse": runFleet,
}

type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"read_p50_us", "us"},
	{"read_p99_us", "us"},
	{"write_p50_us", "us"},
	{"write_p99_us", "us"},
	{"cpu_us_per_op", "us"},
	{"rss_mb", "MiB"},
	{"setup_s", "s"},
}

var perLayer = []metricDef{
	{"core.issue_ns", "ns"},
	{"core.poll_ns_per_op", "ns"},
	{"core.polls_per_op", "count"},
	{"core.ring_full_per_op", "count"},
	{"cache.hit_rate", "ratio"},
	{"cache.bypass_rate", "ratio"},
	{"cache.hit_ns", "ns"},
	{"cache.fills_dropped_per_op", "count"},
	{"cache.write_invals_per_op", "count"},
	{"spot.probes_per_op", "count"},
	{"spot.entries_per_probe", "ratio"},
	{"spot.reads_per_batch", "count"},
	{"spot.red_updates_per_op", "count"},
	{"spot.conflict_stalls_per_op", "count"},
	{"spot.replica_writes_per_op", "count"},
	{"spot.heartbeats_per_s", "1/s"},
	{"spot.probe_us", "us"},
	{"spot.fetch_us", "us"},
	{"spot.execute_us", "us"},
	{"spot.publish_us", "us"},
	{"spot.service_us", "us"},
	{"rdma.frames_per_op", "count"},
	{"rdma.bytes_per_op", "B"},
	{"rdma.goodput", "ratio"},
	{"rdma.dropped", "count"},
	{"kv.cold_read_frac", "ratio"},
	{"kv.hot_read_ns", "ns"},
	{"kv.upsert_ns", "ns"},
	{"kv.complete_pending_ns_per_cold", "ns"},
	{"devices.reads_per_cold_read", "count"},
	{"devices.flush_bytes_per_user_byte", "ratio"},
	{"devices.poll_ns", "ns"},
	{"system.new_ms", "ms"},
	{"system.add_tenant_us_first", "us"},
	{"system.add_tenant_us_last", "us"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.gc_per_s", "1/s"},
	{"runtime.goroutines", "count"},
	{"driver.lag_p99_us", "us"},
	{"driver.trace_overhead", "ratio"},
}

// result is what one measured deployment produced.
type result struct {
	seconds   float64  // measured wall time
	ops       int64    // operations completed while measuring
	win       []window // the measured phase, window by window
	attempted int64    // operations issued, warm-up and drain included
	failed    int64    // errors, timeouts, refusals and failed checks
	rssMB     float64
	setupS    []float64 // one per deployment built
	layer     map[string]float64
	notes     map[string]any // workload facts for the run record
	tracers   []*tracer      // traced run: the load goroutines' spans
}

// window is one window of the measured phase.
type window struct {
	seconds       float64
	ops           int64
	reads, writes hist // latency in ns, from issue (or due time) to completion seen
	cpuUs         float64
}

func (r *result) opsPerS() float64 { return float64(r.ops) / r.seconds }

// medianOver returns the median over the windows of f.
func (r *result) medianOver(f func(w *window) float64) float64 {
	v := make([]float64, len(r.win))
	for i := range r.win {
		v[i] = f(&r.win[i])
	}
	return median(v)
}

// Phases of a run, shared by the load goroutines through one atomic.
const (
	phaseWarm int32 = iota
	phaseMeasure
	phaseStop
)

const (
	windowLen = time.Second
	// untracedDeployments is how many deployments an untraced run builds
	// and measures in turn.
	untracedDeployments = 3
)

// measureClock runs a warm-up and then a measured phase cut into windows
// of windowLen. The load goroutines read the phase and file each
// completion under the window it finished in; every end-to-end metric is
// computed per window and reported as the median over the windows, so a
// stall in one window moves the result by one rank, not by its size.
type measureClock struct {
	warmup time.Duration
	phase  atomic.Int32
	start  int64 // start of the measured phase; written before phase flips
	n      int   // windows
}

func newMeasureClock(seconds float64, warmup time.Duration) *measureClock {
	return &measureClock{warmup: warmup, n: max(1, int(math.Round(seconds*float64(time.Second)/float64(windowLen))))}
}

// window returns the window that time t falls in.
func (c *measureClock) window(t int64) int {
	return min(max(int((t-c.start)/int64(windowLen)), 0), c.n-1)
}

// run sleeps through the warm-up and the measured windows. It calls snap(i)
// at each window boundary i = 0..n, so the workload can take counter
// snapshots, and returns the boundaries' times.
func (c *measureClock) run(snap func(i int)) []int64 {
	// Collect the set-up's garbage first, so every run starts the warm-up
	// from the same heap and peak RSS does not depend on where the set-up
	// left the collector.
	runtime.GC()
	c.phase.Store(phaseWarm)
	time.Sleep(c.warmup)
	bounds := make([]int64, c.n+1)
	snap(0)
	c.start = now()
	bounds[0] = c.start
	c.phase.Store(phaseMeasure)
	for i := 1; i <= c.n; i++ {
		time.Sleep(time.Duration(c.start + int64(i)*int64(windowLen) - now()))
		if i == c.n {
			c.phase.Store(phaseStop)
		}
		bounds[i] = now()
		snap(i)
	}
	return bounds
}

// lat records one load goroutine's completed operations per window.
type lat struct {
	ops           []int64
	reads, writes []hist
}

func newLat(c *measureClock) *lat {
	return &lat{ops: make([]int64, c.n), reads: make([]hist, c.n), writes: make([]hist, c.n)}
}

func (l *lat) record(w int, write bool, d int64) {
	l.ops[w]++
	if write {
		l.writes[w].record(d)
	} else {
		l.reads[w].record(d)
	}
}

// runtimeMeter measures the process over the measured phase: CPU at
// every window boundary, allocations, collections and goroutines over the
// whole phase.
type runtimeMeter struct {
	cpu    []float64 // µs at each boundary
	ms0    runtime.MemStats
	allocs uint64
	gcs    uint32
	gor    int
}

func (m *runtimeMeter) snap(i, n int) {
	if i == 0 {
		m.cpu = make([]float64, 0, n+1) // no growth while measuring
		runtime.ReadMemStats(&m.ms0)
	}
	m.cpu = append(m.cpu, cpuNow())
	if i < n {
		return
	}
	m.gor = runtime.NumGoroutine()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.allocs = ms.Mallocs - m.ms0.Mallocs
	m.gcs = ms.NumGC - m.ms0.NumGC
}

// finish computes the result's per-window figures from the load
// goroutines' records and the meter, and the runtime layer metrics.
func (m *runtimeMeter) finish(r *result, bounds []int64, lats []*lat) {
	n := len(bounds) - 1
	r.seconds = float64(bounds[n]-bounds[0]) / 1e9
	r.win = make([]window, n)
	for w := range r.win {
		ww := &r.win[w]
		ww.seconds = float64(bounds[w+1]-bounds[w]) / 1e9
		ww.cpuUs = m.cpu[w+1] - m.cpu[w]
		for _, l := range lats {
			ww.ops += l.ops[w]
			ww.reads.merge(&l.reads[w])
			ww.writes.merge(&l.writes[w])
		}
		r.ops += ww.ops
	}
	ops := math.Max(float64(r.ops), 1)
	r.layer["runtime.allocs_per_op"] = float64(m.allocs) / ops
	r.layer["runtime.gc_per_s"] = float64(m.gcs) / r.seconds
	r.layer["runtime.goroutines"] = float64(m.gor)
}

// deployments runs the workload on n deployments in turn, each measured
// for an nth of the time, and pools their windows: the medians then span
// deployments as well as time, and setup_s is the median of n builds.
func deployments(run runFunc, o opts, seconds float64, n int) (*result, error) {
	all := &result{notes: map[string]any{}}
	for i := 0; i < n; i++ {
		if i > 0 {
			releaseMemory()
		}
		r, err := run(o, false, seconds/float64(n))
		if err != nil {
			return nil, err
		}
		all.win = append(all.win, r.win...)
		all.seconds += r.seconds
		all.ops += r.ops
		all.attempted += r.attempted
		all.failed += r.failed
		all.rssMB = math.Max(all.rssMB, r.rssMB)
		all.setupS = append(all.setupS, r.setupS...)
		for k, v := range r.notes {
			all.notes[k] = v
		}
	}
	return all, nil
}

// releaseMemory returns a torn-down deployment's memory to the OS before
// the next deployment is built.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o opts
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: uniform-rw, zipf-cached, kv-ycsb, fleet-sparse")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	o.trace = trace != 0
	o.setups = untracedDeployments
	o.spanFile = fmt.Sprintf(".bench_build/traces/%s-%d.tsv", o.workload, o.seed)
	run, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (uniform-rw, zipf-cached, kv-ycsb, fleet-sparse) and positive --seconds\n")
		os.Exit(2)
	}
	// A deployment that stops answering must not hold the run past its
	// budget: give up with an error and no result.
	time.AfterFunc(time.Duration(o.seconds*float64(time.Second))+150*time.Second, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s: run overran its time budget\n", o.workload)
		os.Exit(1)
	})
	out, record, err := execute(run, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(record); err != nil {
		os.Exit(1)
	}
	if err := enc.Encode(out); err != nil {
		os.Exit(1)
	}
}

// execute runs the workload as o asks and assembles the result line and
// the run record.
func execute(run runFunc, o opts) (output, map[string]any, error) {
	runRec := map[string]any{"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "trace": o.trace}
	record := map[string]any{"host": hostRecord(), "run": runRec}
	out := output{Metrics: map[string]metric{}}
	if !o.trace {
		r, err := deployments(run, o, o.seconds, o.setups)
		if err != nil {
			return out, nil, err
		}
		vals := map[string]float64{
			"ops_per_s":     r.medianOver(func(w *window) float64 { return float64(w.ops) / w.seconds }),
			"read_p50_us":   r.medianOver(func(w *window) float64 { return w.reads.quantile(0.50) / 1e3 }),
			"read_p99_us":   r.medianOver(func(w *window) float64 { return w.reads.quantile(0.99) / 1e3 }),
			"write_p50_us":  r.medianOver(func(w *window) float64 { return w.writes.quantile(0.50) / 1e3 }),
			"write_p99_us":  r.medianOver(func(w *window) float64 { return w.writes.quantile(0.99) / 1e3 }),
			"cpu_us_per_op": r.medianOver(func(w *window) float64 { return w.cpuUs / math.Max(float64(w.ops), 1) }),
			"rss_mb":        r.rssMB,
			"setup_s":       median(r.setupS),
		}
		perWin := make([]float64, len(r.win))
		var reads, writes int64
		var cpuUs float64
		for i := range r.win {
			perWin[i] = math.Round(float64(r.win[i].ops) / r.win[i].seconds)
			reads += r.win[i].reads.n
			writes += r.win[i].writes.n
			cpuUs += r.win[i].cpuUs
		}
		for _, m := range endToEnd {
			out.Metrics[m.name] = metric{vals[m.name], m.unit}
		}
		out.Attempted, out.Failed = r.attempted, r.failed
		runRec["notes"] = r.notes
		runRec["samples"] = map[string]any{
			"reads": reads, "writes": writes, "setups": r.setupS, "ops_per_s_by_window": perWin,
			// CPUs the process used while measuring. A run that got
			// markedly fewer than its neighbours shared the host.
			"cpus_used": cpuUs / 1e6 / r.seconds,
		}
	} else {
		base, err := run(o, false, o.seconds/2)
		if err != nil {
			return out, nil, err
		}
		releaseMemory()
		tr, err := run(o, true, o.seconds/2)
		if err != nil {
			return out, nil, err
		}
		if err := writeSpans(o.spanFile, tr.tracers); err != nil {
			return out, nil, err
		}
		tr.layer["driver.trace_overhead"] = ratio(tr.opsPerS(), base.opsPerS())
		for _, m := range perLayer {
			out.Metrics[m.name] = metric{tr.layer[m.name], m.unit}
		}
		out.Attempted = base.attempted + tr.attempted
		out.Failed = base.failed + tr.failed
		runRec["trace_overhead_base_ops_per_s"] = base.opsPerS()
		runRec["traced_ops_per_s"] = tr.opsPerS()
	}
	runRec["error_rate"] = ratio(float64(out.Failed), float64(out.Attempted))
	out.Correct = out.Failed == 0 && out.Attempted > 0
	return out, record, nil
}
