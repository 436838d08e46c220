package main

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/algebras"
	"repro/internal/engine"
	"repro/internal/matrix"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/wire"
)

// The service workloads run an in-process dbfsimd core sized for a
// 2-vCPU host and drive it over the loopback with closed-loop clients,
// one connection each: real callers (dbfsim -server, loadgen) wait for
// each Result before they submit again.
const (
	svcWorkers = 2
	svcQuantum = 32
	svcClients = 2
	reqTimeout = 30 * time.Second
	// svcSetupReps is how many servers a service workload starts; setup_s
	// is the median. A start takes milliseconds, so many are cheap and
	// steady the median.
	svcSetupReps = 15
)

// svcSpec is one service workload: a scenario generated from the seed.
type svcSpec struct {
	name string
	text func(seed int64) []byte
}

// svcSliced is the ring-64 RIP run that a 32-step quantum slices into
// about 73 pieces, so runner snapshot/restore and server preemption
// dominate its cost.
var svcSliced = svcSpec{"svc-sliced", func(seed int64) []byte {
	return fmt.Appendf(nil, "scenario svc-sliced\ntopo ring 64 rip\nseed %d\nhorizon 4096\nat 1024 linkdown 0 1\nat 2048 linkup 0 1\n", seed)
}}

// svcSmall is loadgen's default scenario: small enough that frame codec,
// connection I/O, admission and parsing carry real weight.
var svcSmall = svcSpec{"svc-small", func(seed int64) []byte {
	return fmt.Appendf(nil, "scenario loadgen\ntopo ring 8 rip\nseed %d\nhorizon 300\nat 60 linkdown 0 1\nat 140 linkup 0 1\nat 220 weight 3 2 3\n", seed)
}}

// reference replays a scenario unsliced in-process and returns the final
// hash every service completion must match.
func reference(text []byte) (uint64, error) {
	rr, err := replay(nil, "", text, scenarioHorizon)
	return rr.hash, err
}

// client is one closed-loop caller on its own connection. It speaks the
// service protocol through the wire and transport layers directly, so
// the benchmark can time each layer call.
type client struct {
	conn   *transport.Conn
	tenant string
}

// outcome is what one request returned.
type outcome struct {
	res   wire.Result
	last  wire.Status // the last Status frame, whose Trace holds the server's span log
	sheds int
	sub   []byte // the encoded Submit frame
}

// do submits one run and reads frames until its Result, retrying shed
// submissions after the server's hint.
func (c *client) do(tr *tracer, id string, text []byte) (outcome, error) {
	var out outcome
	root := tr.begin(0, id, "request")
	defer tr.end(root)
	if err := c.conn.SetReadDeadline(time.Now().Add(reqTimeout)); err != nil {
		return out, err
	}
	sub := wire.Submit{Tenant: c.tenant, ID: id, Scenario: text}
	for {
		sp := tr.begin(root, id, "wire.encode")
		b, err := wire.EncodeFrame(sub)
		tr.end(sp)
		if err != nil {
			return out, err
		}
		out.sub = b
		sp = tr.begin(root, id, "transport.send")
		err = c.conn.Send(b)
		tr.end(sp)
		if err != nil {
			return out, err
		}
		retry, err := c.await(tr, root, id, &out)
		if err != nil || !retry {
			return out, err
		}
	}
}

// await reads frames for id until its Result (retry false) or a
// retriable refusal (retry true, after the server's backoff hint).
func (c *client) await(tr *tracer, root int32, id string, out *outcome) (retry bool, err error) {
	for {
		// Blocking here is time the request spends inside the server and
		// the loopback, not transport work.
		sp := tr.begin(root, id, "server.wait")
		b, err := c.conn.Recv()
		tr.end(sp)
		if err != nil {
			return false, err
		}
		sp = tr.begin(root, id, "wire.decode")
		f, err := wire.DecodeFrame(b)
		tr.end(sp)
		if err != nil {
			return false, err
		}
		switch f := f.(type) {
		case wire.Status:
			if f.ID == id {
				out.last = f
			}
		case wire.Result:
			if f.ID == id {
				out.res = f
				return false, nil
			}
		case wire.ErrorFrame:
			if !f.Code.Retriable() {
				return false, &f
			}
			out.sheds++
			time.Sleep(time.Duration(max(f.RetryAfterMS, 1)) * time.Millisecond)
			return true, nil
		}
	}
}

// service is one running server with its connected clients.
type service struct {
	srv     *server.Server
	clients []*client
	text    []byte
	want    uint64 // reference hash
	next    []int  // per-client request counter
	last    outcome
	waits   bool // record each request's queue wait (per-layer runs)
}

// startService starts a server, connects the clients and completes one
// request per client, so the first timed request finds warm pools.
func startService(text []byte, want uint64) (*service, error) {
	srv, err := server.New(server.Config{Workers: svcWorkers, Quantum: svcQuantum})
	if err != nil {
		return nil, err
	}
	s := &service{srv: srv, text: text, want: want, next: make([]int, svcClients)}
	ctx, cancel := context.WithTimeout(context.Background(), reqTimeout)
	defer cancel()
	for i := 0; i < svcClients; i++ {
		conn, err := transport.Dial(ctx, srv.Addr())
		if err != nil {
			s.close()
			return nil, err
		}
		s.clients = append(s.clients, &client{conn: conn, tenant: fmt.Sprintf("t%d", i)})
	}
	lp := s.run(0, nil)
	if lp.failed > 0 {
		s.close()
		return nil, fmt.Errorf("first requests failed")
	}
	return s, nil
}

func (s *service) close() {
	for _, c := range s.clients {
		c.conn.Close()
	}
	s.srv.Close()
}

// run drives every client closed-loop for dur (dur 0: one request each)
// and checks each completion's hash against the reference.
func (s *service) run(dur time.Duration, tr *tracer) *loop {
	var (
		mu sync.Mutex
		lp = &loop{}
		wg sync.WaitGroup
	)
	m := startMem()
	t0 := time.Now()
	end := t0.Add(dur)
	for ci, c := range s.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for first := true; first || time.Now().Before(end); first = false {
				id := fmt.Sprintf("c%d-r%d", ci, s.next[ci])
				s.next[ci]++
				r0 := time.Now()
				o, err := c.do(tr, id, s.text)
				took := time.Since(r0)
				mu.Lock()
				lp.ops++
				lp.sheds += o.sheds
				if err != nil || o.res.Hash != s.want {
					lp.failed++
				} else {
					lp.lats = append(lp.lats, ms(took))
					lp.cells += o.res.CellsComputed
					s.last = o
					if s.waits {
						if w, ok := queueWait(o.last.Trace); ok {
							lp.waits = append(lp.waits, w)
						}
					}
				}
				mu.Unlock()
				if err != nil {
					return // the connection is in an unknown state
				}
			}
		}()
	}
	wg.Wait()
	lp.wall = time.Since(t0)
	lp.allocs, lp.bytes = m.stop()
	return lp
}

// runService runs either service workload.
func runService(cfg config, spec svcSpec) (*report, error) {
	text := spec.text(cfg.seed)
	want, err := reference(text)
	if err != nil {
		return nil, fmt.Errorf("reference replay: %w", err)
	}
	var setups []float64
	var svc *service
	for i := 0; i < svcSetupReps; i++ {
		if svc != nil {
			svc.close()
		}
		t0 := time.Now()
		if svc, err = startService(text, want); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer svc.close()
	rep := &report{metrics: map[string]float64{}}
	rep.notef("scenario: %s seed=%d reference hash=%016x; %d closed-loop clients, workers=%d quantum=%d",
		spec.name, cfg.seed, want, svcClients, svcWorkers, svcQuantum)

	if !cfg.trace {
		rss := startRSS()
		lp := svc.run(cfg.seconds, nil)
		lp.rssMB = rss.peakMB()
		rep.attempted, rep.failed, rep.sheds = lp.ops, lp.failed, lp.sheds
		rep.metrics = endToEndMetrics(setups, lp)
		noteLoop(rep, "measured", lp)
		rep.notef("unique_hashes=1 over %d completions", lp.ok())
		return rep, nil
	}

	tr := newTracer()
	svc.waits = true
	before := metrics.Default.Snapshot()
	untraced, traced := tracedBlocks(cfg, tr, svc.run)
	after := metrics.Default.Snapshot()
	rep.attempted = untraced.ops + traced.ops
	rep.failed = untraced.failed + traced.failed
	rep.sheds = untraced.sheds + traced.sheds
	traceOverhead(rep, untraced, traced)

	if err := serviceProbes(rep, tr, svc, before, after, untraced, traced); err != nil {
		return nil, err
	}
	if err := scenarioProbes(rep, tr, text); err != nil {
		return nil, err
	}
	if err := checkpointProbe(rep, tr, svcSliced.text(cfg.seed)); err != nil {
		return nil, err
	}
	if err := scenarioEngineProbes(rep, tr, text); err != nil {
		return nil, err
	}
	rep.metrics["paths.table_size"] = 0 // RIP routes carry no paths

	self := noteSelfTimes(rep, tr)
	attribution(rep, median(traced.lats), map[string]float64{
		"wire (client)":         self["wire"],
		"transport (send)":      self["transport"],
		"server queue wait":     rep.metrics["server.queue_wait_ms"],
		"scenario parse+build":  rep.metrics["scenario.parse_build_ms"],
		"scenario sliced steps": rep.metrics["scenario.sliced_ms"],
	})
	return rep, writeSpans(rep, cfg, tr)
}

// homeServiceProbe measures the wire, transport and server layers on
// their home workload, svc-small, for traced runs of workloads that
// bypass the service.
func homeServiceProbe(rep *report, cfg config, tr *tracer) error {
	text := svcSmall.text(cfg.seed)
	want, err := reference(text)
	if err != nil {
		return fmt.Errorf("svc-small reference replay: %w", err)
	}
	svc, err := startService(text, want)
	if err != nil {
		return fmt.Errorf("svc-small: %w", err)
	}
	defer svc.close()
	svc.waits = true
	before := metrics.Default.Snapshot()
	lp := svc.run(time.Second, nil)
	after := metrics.Default.Snapshot()
	rep.attempted += lp.ops
	rep.failed += lp.failed
	rep.notef("service layers measured on svc-small: %d requests, p50 %.4g ms", lp.ops, median(lp.lats))
	return serviceProbes(rep, tr, svc, before, after, lp)
}

// serviceProbes derives the wire, transport and server metrics of a
// running service from the loops just run on it (metrics registry
// snapshots taken before and after them) and from probes of its own.
// server.self_ms is the untraced p50 minus an in-process replay of the
// request's scenario at the service quantum.
func serviceProbes(rep *report, tr *tracer, svc *service, before, after map[string]float64, loops ...*loop) error {
	all := &loop{}
	for _, lp := range loops {
		all.add(lp)
	}
	serverMetrics(rep, before, after, all.ops, all.waits)
	if err := wireProbe(rep, tr, svc.last); err != nil {
		return err
	}
	dialProbe(rep, tr, svc.srv.Addr())
	var replays []float64
	for i := 0; i < 5; i++ {
		rr, err := replay(nil, "", svc.text, svcQuantum)
		if err != nil {
			return err
		}
		replays = append(replays, ms(rr.parseBuild+rr.total))
	}
	rep.metrics["server.self_ms"] = median(loops[0].lats) - median(replays)
	return nil
}

// serverMetrics derives the transport and server metrics from the
// process-wide metrics registry deltas over requests, and the queue wait
// from the waits read out of the requests' server span logs.
func serverMetrics(rep *report, before, after map[string]float64, requests int, waits []float64) {
	d := func(k string) float64 { return after[k] - before[k] }
	per := func(k string) float64 { return ratio(d(k), float64(requests)) }
	rep.metrics["transport.frames_per_request"] = per("transport_frames_sent_total")
	rep.metrics["transport.bytes_per_request"] = per("transport_bytes_sent_total")
	pre := per("dbfsimd_preemptions_total")
	rep.metrics["server.preemptions_per_request"] = pre
	rep.metrics["server.quanta_per_request"] = pre + 1
	rep.metrics["server.quantum_ms_mean"] = 1000 * ratio(d("dbfsimd_quantum_seconds_sum"), d("dbfsimd_quantum_seconds_count"))
	// The span log has 0.1 ms resolution and most waits are shorter, so
	// the mean is reported: a median would read 0 on every run.
	rep.metrics["server.queue_wait_ms"] = mean(waits)
}

// queueWait reads the time from admission to the first scheduled quantum
// out of a server span log, which Status frames carry as lines such as
// "+12.3ms admitted (queued)".
func queueWait(trace string) (float64, bool) {
	adm, sched := -1.0, -1.0
	for _, line := range strings.Split(trace, "\n") {
		at, msg, ok := strings.Cut(line, "ms ")
		if !ok || !strings.HasPrefix(at, "+") {
			continue
		}
		v, err := strconv.ParseFloat(at[1:], 64)
		if err != nil {
			continue
		}
		switch {
		case strings.HasPrefix(msg, "admitted") && adm < 0:
			adm = v
		case strings.HasPrefix(msg, "scheduled quantum") && sched < 0:
			sched = v
		}
	}
	return sched - adm, adm >= 0 && sched >= adm
}

// wireProbe times EncodeFrame and DecodeFrame on the workload's own
// Submit and Result frames.
func wireProbe(rep *report, tr *tracer, o outcome) error {
	res, err := wire.EncodeFrame(o.res)
	if err != nil {
		return err
	}
	frames := [][]byte{o.sub, res}
	var enc, dec []float64
	var bytes float64
	for _, b := range frames {
		f, err := wire.DecodeFrame(b)
		if err != nil {
			return err
		}
		const reps = 2000
		sp := tr.begin(0, "probe-wire", "wire.encode")
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			sink, _ = wire.EncodeFrame(f)
		}
		enc = append(enc, float64(time.Since(t0))/reps)
		tr.end(sp)
		sp = tr.begin(0, "probe-wire", "wire.decode")
		t0 = time.Now()
		for i := 0; i < reps; i++ {
			sink, _ = wire.DecodeFrame(b)
		}
		dec = append(dec, float64(time.Since(t0))/reps)
		tr.end(sp)
		bytes += float64(len(b))
	}
	rep.metrics["wire.encode_ns"] = mean(enc)
	rep.metrics["wire.decode_ns"] = mean(dec)
	rep.metrics["wire.frame_bytes"] = bytes / float64(len(frames))
	return nil
}

// dialProbe times connection set-up to the server.
func dialProbe(rep *report, tr *tracer, addr string) {
	var lats []float64
	for i := 0; i < 20; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), reqTimeout)
		sp := tr.begin(0, "probe-dial", "transport.dial")
		t0 := time.Now()
		conn, err := transport.Dial(ctx, addr)
		took := time.Since(t0)
		tr.end(sp)
		cancel()
		if err != nil {
			rep.attempted++
			rep.failed++
			continue
		}
		conn.Close()
		lats = append(lats, ms(took))
	}
	rep.metrics["transport.dial_ms"] = median(lats)
}

// replayRun is one in-process replay of a scenario through the runner.
type replayRun struct {
	parseBuild, total time.Duration
	quanta            int
	allocs, bytes     uint64
	stats             engine.Stats
	hash              uint64
}

// replay parses the scenario, builds a runner and advances it in quanta
// of quantum steps to completion.
func replay(tr *tracer, id string, text []byte, quantum int) (replayRun, error) {
	var rr replayRun
	root := tr.begin(0, id, "scenario.replay")
	defer tr.end(root)
	m := startMem()
	t0 := time.Now()
	sp := tr.begin(root, id, "scenario.parse")
	sc, err := scenario.Parse(text)
	tr.end(sp)
	if err != nil {
		return rr, err
	}
	sp = tr.begin(root, id, "scenario.build")
	r, err := scenario.NewRunner(sc)
	tr.end(sp)
	if err != nil {
		return rr, err
	}
	defer r.Close()
	rr.parseBuild = time.Since(t0)
	t1 := time.Now()
	for done := false; !done; rr.quanta++ {
		sp = tr.begin(root, id, "scenario.advance")
		done, err = r.Advance(quantum)
		tr.end(sp)
		if err != nil {
			return rr, err
		}
	}
	rr.total = time.Since(t1)
	rr.allocs, rr.bytes = m.stop()
	rr.stats, rr.hash = r.Stats(), r.FinalHash()
	return rr, nil
}

// scenarioProbes replays the scenario in-process at the service quantum
// and unsliced (quantum = horizon), five times each.
func scenarioProbes(rep *report, tr *tracer, text []byte) error {
	want, err := reference(text)
	if err != nil {
		return err
	}
	var pb, sliced, unsliced, adv, mbS, mbU []float64
	quanta := 0
	for i := 0; i < 5; i++ {
		s, err := replay(tr, fmt.Sprintf("replay-sliced-%d", i), text, svcQuantum)
		if err != nil {
			return err
		}
		u, err := replay(tr, fmt.Sprintf("replay-unsliced-%d", i), text, scenarioHorizon)
		if err != nil {
			return err
		}
		rep.attempted++
		if s.hash != want || u.hash != want {
			rep.failed++
			rep.notef("FAIL: in-process replay hash differs from the reference")
		}
		pb = append(pb, ms(s.parseBuild))
		sliced = append(sliced, ms(s.total))
		unsliced = append(unsliced, ms(u.total))
		adv = append(adv, ms(s.total)/float64(s.quanta))
		mbS = append(mbS, float64(s.bytes)/(1<<20))
		mbU = append(mbU, float64(u.bytes)/(1<<20))
		quanta = s.quanta
	}
	rep.metrics["scenario.parse_build_ms"] = median(pb)
	rep.metrics["scenario.quanta_per_run"] = float64(quanta)
	rep.metrics["scenario.advance_ms"] = median(adv)
	rep.metrics["scenario.sliced_ms"] = median(sliced)
	rep.metrics["scenario.unsliced_ms"] = median(unsliced)
	rep.metrics["scenario.slice_overhead"] = ratio(median(sliced), median(unsliced))
	rep.metrics["scenario.alloc_mb_sliced"] = median(mbS)
	rep.metrics["scenario.alloc_mb_unsliced"] = median(mbU)
	return nil
}

// scenarioHorizon is a quantum no scenario horizon exceeds: advancing by
// it runs a scenario unsliced.
const scenarioHorizon = 4096

// checkpointProbe pauses the scenario half-way through its quanta,
// checkpoints it, resumes the checkpoint in a fresh runner, and checks
// the resumed run ends on the hash of the run that was never paused.
func checkpointProbe(rep *report, tr *tracer, text []byte) error {
	sc, err := scenario.Parse(text)
	if err != nil {
		return err
	}
	full, err := replay(nil, "", text, svcQuantum)
	if err != nil {
		return err
	}
	want := full.hash
	var enc, res, size []float64
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("checkpoint-%d", i)
		r, err := scenario.NewRunner(sc)
		if err != nil {
			return err
		}
		for q := 0; q < full.quanta/2; q++ {
			if _, err := r.Advance(svcQuantum); err != nil {
				r.Close()
				return err
			}
		}
		sp := tr.begin(0, id, "checkpoint.encode")
		t0 := time.Now()
		data, err := r.Checkpoint()
		enc = append(enc, ms(time.Since(t0)))
		tr.end(sp)
		r.Close()
		if err != nil {
			return err
		}
		sp = tr.begin(0, id, "checkpoint.resume")
		t0 = time.Now()
		r2, err := scenario.ResumeRunner(data)
		res = append(res, ms(time.Since(t0)))
		tr.end(sp)
		if err != nil {
			return err
		}
		size = append(size, float64(len(data)))
		if _, err := r2.Advance(scenarioHorizon); err != nil {
			r2.Close()
			return err
		}
		rep.attempted++
		if r2.FinalHash() != want {
			rep.failed++
			rep.notef("FAIL: resumed checkpoint ends on hash %016x, unpaused run %016x", r2.FinalHash(), want)
		}
		r2.Close()
	}
	rep.metrics["checkpoint.encode_ms"] = median(enc)
	rep.metrics["checkpoint.bytes"] = median(size)
	rep.metrics["checkpoint.resume_ms"] = median(res)
	return nil
}

// scenarioEngineProbes measures the engine layer as the service uses it
// (the unsliced replay's counters, allocations and the speedup over one
// proc) and the σ kernel and algebra on the scenario's pristine RIP ring.
func scenarioEngineProbes(rep *report, tr *tracer, text []byte) error {
	var lats, allocs []float64
	var st engine.Stats
	for i := 0; i < 3; i++ {
		u, err := replay(tr, fmt.Sprintf("engine-%d", i), text, scenarioHorizon)
		if err != nil {
			return err
		}
		lats = append(lats, ms(u.total))
		allocs = append(allocs, float64(u.allocs))
		st = u.stats
	}
	var oneLats, oneAllocs []float64
	prev := runtime.GOMAXPROCS(1)
	for i := 0; i < 3; i++ {
		u, err := replay(nil, "", text, scenarioHorizon)
		if err != nil {
			runtime.GOMAXPROCS(prev)
			return err
		}
		oneLats = append(oneLats, ms(u.total))
		oneAllocs = append(oneAllocs, float64(u.allocs))
	}
	runtime.GOMAXPROCS(prev)
	engineMetrics(rep, st, median(lats), median(allocs), median(oneLats), median(oneAllocs))

	sc, err := scenario.Parse(text)
	if err != nil {
		return err
	}
	alg := algebras.RIP()
	adj := topology.BuildUniform(topology.Ring(sc.Spec.N), alg.AddEdge(1))
	eng := engine.New(alg, adj, engine.Config{})
	defer eng.Close()
	x, _, ok := eng.FixedPoint(matrix.Identity[algebras.NatInf](alg, sc.Spec.N), 4*sc.Spec.N)
	if !ok {
		return fmt.Errorf("pristine %s ring did not reach a fixed point", sc.Spec.Algebra)
	}
	algebraProbes(rep, tr, eng, alg, adj, x)
	return nil
}
