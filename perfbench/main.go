// Command perfbench is the repository benchmark. It times calls into the
// public functions of each layer of repro — the σ/δ engine, the
// interned policy algebra, and the dbfsimd service stack (scenario
// runner, checkpoint, wire codec, framed transport, server) — from
// outside, on four seeded workloads, and checks every result it times.
//
// Usage (from the repository root; run.sh builds and invokes it):
//
//	bash perfbench/run.sh --workload dv-converge --seed 5 --seconds 15 --trace 0
//	bash perfbench/run.sh --workload all --seed 5 --seconds 15 --trace 0
//
// With --trace 0 it measures the end-to-end metrics; with --trace 1 it
// runs the workload again with spans recorded around every layer call,
// reports the per-layer metrics, the tracing overhead, and how much of
// the median latency the layers' self times account for. Human-readable
// lines go to stdout first; the last line is one JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// commit is the source revision, stamped by run.sh with -ldflags.
var commit = "unknown"

// defaultSeed reproduces experiment E5's schedule (Hashed seed 5); the
// recorded exact cell counts below hold at this seed. heldOutSeed is kept
// out of tuning so that later claims can be re-checked on it.
const (
	defaultSeed = 5
	heldOutSeed = 1009
)

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// workload with --trace 0. failed_ratio and shed_ratio are printed too
// but kept out of the JSON: they are 0 on a healthy run, and the
// attempted/failed counts already carry them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_ms.p50", "ms"},
	{"latency_ms.tail", "ms"},
	{"throughput_ops_s", "1/s"},
	{"cells_per_s", "1/s"},
	{"allocs_per_op", "count"},
	{"alloc_mb_per_op", "MB"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics. Each is taken on the traced
// workload when that workload exercises the layer; otherwise on the
// layer's home workload (scenario and checkpoint: svc-sliced; wire,
// transport and server: svc-small), so every traced run reports every
// layer. Checkpoints happen only on drain, so checkpoint is always
// measured on svc-sliced.
var perLayer = []metricDef{
	{"matrix.sigma_ns_per_cell", "ns"},
	{"engine.run_ms", "ms"},
	{"engine.cells_per_run", "count"},
	{"engine.rows_computed", "count"},
	{"engine.rows_skipped", "count"},
	{"engine.skip_ratio", "ratio"},
	{"engine.steps", "count"},
	{"engine.ns_per_cell", "ns"},
	{"engine.allocs_per_run", "count"},
	{"engine.allocs_per_run_1proc", "count"},
	{"engine.speedup_nproc", "ratio"},
	{"paths.table_size", "count"},
	{"policy.edge_apply_ns", "ns"},
	{"policy.choice_ns", "ns"},
	{"scenario.parse_build_ms", "ms"},
	{"scenario.quanta_per_run", "count"},
	{"scenario.advance_ms", "ms"},
	{"scenario.sliced_ms", "ms"},
	{"scenario.unsliced_ms", "ms"},
	{"scenario.slice_overhead", "ratio"},
	{"scenario.alloc_mb_sliced", "MB"},
	{"scenario.alloc_mb_unsliced", "MB"},
	{"checkpoint.encode_ms", "ms"},
	{"checkpoint.bytes", "bytes"},
	{"checkpoint.resume_ms", "ms"},
	{"wire.encode_ns", "ns"},
	{"wire.decode_ns", "ns"},
	{"wire.frame_bytes", "bytes"},
	{"transport.dial_ms", "ms"},
	{"transport.frames_per_request", "count"},
	{"transport.bytes_per_request", "bytes"},
	{"server.quanta_per_request", "count"},
	{"server.quantum_ms_mean", "ms"},
	{"server.preemptions_per_request", "count"},
	{"server.queue_wait_ms", "ms"},
	{"server.self_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
	{"attrib.share", "ratio"},
	{"attrib.unattributed_ms", "ms"},
}

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
	spans   string // where the traced run writes its spans
}

// report is one workload's outcome.
type report struct {
	attempted, failed, sheds int
	metrics                  map[string]float64
	notes                    []string // extra human-readable lines
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// workloads lists every workload with its runner, in the order
// --workload all runs them.
var workloads = []struct {
	name string
	run  func(config) (*report, error)
}{
	{"dv-converge", runDV},
	{"pv-policy", runPV},
	{"svc-sliced", func(c config) (*report, error) { return runService(c, svcSliced) }},
	{"svc-small", func(c config) (*report, error) { return runService(c, svcSmall) }},
}

func main() { os.Exit(realMain()) }

func realMain() int {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(names, ", ")+", or all")
		seed    = flag.Int64("seed", defaultSeed, "input seed")
		seconds = flag.Float64("seconds", 10, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1: traced per-layer run instead of the end-to-end run")
	)
	flag.Parse()
	var runs []int // indexes into workloads
	for i, w := range workloads {
		if *name == "all" || *name == w.name {
			runs = append(runs, i)
		}
	}
	if len(runs) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s, or all)\n", *name, strings.Join(names, ", "))
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --seconds > 0 and --trace 0|1")
		return 2
	}

	fmt.Printf("env nproc=%d gomaxprocs=%d cpu=%q go=%s os=%s/%s commit=%s default_seed=%d held_out_seed=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), runtime.GOOS, runtime.GOARCH, commit, defaultSeed, heldOutSeed)

	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	out := map[string]any{}
	attempted, failed := 0, 0
	for _, i := range runs {
		w := workloads[i].name
		cfg := config{
			seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1,
			spans: filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.jsonl.gz", w, *seed)),
		}
		fmt.Printf("workload %s seed=%d seconds=%g trace=%d\n", w, *seed, *seconds, *trace)
		rep, err := workloads[i].run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w, err)
			return 1
		}
		for _, d := range defs {
			v, ok := rep.metrics[d.name]
			if !ok {
				fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s was not measured\n", w, d.name)
				return 1
			}
			fmt.Printf("  %-32s %14.6g %s\n", d.name, v, d.unit)
			key := d.name
			if len(runs) > 1 {
				key = w + "/" + d.name
			}
			out[key] = map[string]any{"value": v, "unit": d.unit}
		}
		fmt.Printf("  %-32s %14.6g ratio (%d of %d)\n", "failed_ratio", ratio(float64(rep.failed), float64(rep.attempted)), rep.failed, rep.attempted)
		fmt.Printf("  %-32s %14.6g ratio (%d sheds)\n", "shed_ratio", ratio(float64(rep.sheds), float64(rep.attempted)), rep.sheds)
		for _, n := range rep.notes {
			fmt.Println("  " + n)
		}
		attempted += rep.attempted
		failed += rep.failed
	}
	b, err := json.Marshal(map[string]any{
		"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	if failed > 0 || attempted == 0 {
		return 1
	}
	return 0
}

// endToEndMetrics derives the end-to-end metrics from a measured loop.
func endToEndMetrics(setups []float64, lp *loop) map[string]float64 {
	tl, _, _ := windowedTail(lp.lats)
	return map[string]float64{
		"setup_s":          median(setups),
		"latency_ms.p50":   median(lp.lats),
		"latency_ms.tail":  tl,
		"throughput_ops_s": ratio(float64(lp.ok()), lp.wall.Seconds()),
		"cells_per_s":      ratio(float64(lp.cells), lp.wall.Seconds()),
		"allocs_per_op":    ratio(float64(lp.allocs), float64(lp.ok())),
		"alloc_mb_per_op":  ratio(float64(lp.bytes)/(1<<20), float64(lp.ok())),
		"peak_rss_mb":      lp.rssMB,
	}
}

// loop is the record of one measured closed loop.
type loop struct {
	lats          []float64 // per completed op, ms
	cells         int64
	ops, failed   int
	sheds         int
	wall          time.Duration // time the callers were issuing ops
	allocs, bytes uint64
	waits         []float64 // server queue waits of service requests, ms
	rssMB         float64   // windowed peak resident set while the loop ran
}

func (l *loop) ok() int { return l.ops - l.failed }

// add merges another loop's record into l.
func (l *loop) add(o *loop) {
	l.lats = append(l.lats, o.lats...)
	l.cells += o.cells
	l.ops += o.ops
	l.failed += o.failed
	l.sheds += o.sheds
	l.wall += o.wall
	l.allocs += o.allocs
	l.bytes += o.bytes
	l.waits = append(l.waits, o.waits...)
}

// noteLoop prints the sample counts behind a loop's latency figures.
func noteLoop(rep *report, label string, lp *loop) {
	tl, pct, per := windowedTail(lp.lats)
	rep.notef("%s: ops=%d p50=%.4gms (N=%d) tail=p%.2f %.4gms (median over %d windows of N=%d, 10 beyond in each) wall=%.2fs",
		label, lp.ops, median(lp.lats), len(lp.lats), pct, tl, max(1, len(lp.lats)/max(per, 1)), per, lp.wall.Seconds())
}

// tracedBlocks runs the measured loop alternately untraced and traced,
// four blocks in all, so that drift on the host affects both halves
// alike. It returns the untraced and traced halves.
func tracedBlocks(cfg config, tr *tracer, run func(time.Duration, *tracer) *loop) (*loop, *loop) {
	untraced, traced := &loop{}, &loop{}
	for b := 0; b < 4; b++ {
		if b%2 == 0 {
			untraced.add(run(cfg.seconds/4, nil))
		} else {
			traced.add(run(cfg.seconds/4, tr))
		}
	}
	return untraced, traced
}

// traceOverhead reports the traced loop's p50 against the untraced one's
// and returns the untraced p50.
func traceOverhead(rep *report, untraced, traced *loop) float64 {
	noteLoop(rep, "untraced", untraced)
	noteLoop(rep, "traced", traced)
	u, t := median(untraced.lats), median(traced.lats)
	rep.metrics["trace.overhead_ratio"] = ratio(t, u)
	rep.notef("tracing overhead: p50 %.4g ms traced vs %.4g ms untraced (%+.4g ms)", t, u, t-u)
	return u
}

// noteSelfTimes notes and returns each layer's median self time per traced
// request.
func noteSelfTimes(rep *report, tr *tracer) map[string]float64 {
	self := medianSelfMS(tr.selfTimes("request"))
	for _, l := range sortedLayers(self) {
		rep.notef("self %-12s %10.4f ms per request (median, traced)", l, self[l])
	}
	return self
}

// attribution reports how much of the median latency the per-layer self
// times account for.
func attribution(rep *report, p50 float64, parts map[string]float64) {
	var sum float64
	for _, l := range sortedLayers(parts) {
		sum += parts[l]
		rep.notef("attrib %-22s %10.4f ms  (%.1f%% of p50)", l, parts[l], 100*ratio(parts[l], p50))
	}
	rep.notef("attrib %-22s %10.4f ms  (%.1f%% of p50 %.4f ms)", "unattributed", p50-sum, 100*ratio(p50-sum, p50), p50)
	rep.metrics["attrib.share"] = ratio(sum, p50)
	rep.metrics["attrib.unattributed_ms"] = p50 - sum
}

// writeSpans stores the traced run's spans and notes their count.
func writeSpans(rep *report, cfg config, tr *tracer) error {
	n, err := tr.write(cfg.spans)
	if err != nil {
		return err
	}
	rep.notef("spans: %d written to %s", n, cfg.spans)
	return nil
}
