package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/algebras"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/matrix"
	"repro/internal/paths"
	"repro/internal/policy"
	"repro/internal/topology"
)

// setupReps is how many times an engine workload sets itself up from
// scratch; setup_s is the median.
const setupReps = 5

// Exact σ-cell counts of one run at the default seed. The engine is
// deterministic, so any other count is a correctness failure.
const (
	dvCellsAtDefaultSeed = 4254531
	pvCellsAtDefaultSeed = 961331
)

// instance is one engine workload's input: an algebra over a topology,
// a start state and a lazy asynchronous schedule.
type instance[R any] struct {
	alg   core.Algebra[R]
	adj   *matrix.Adjacency[R]
	start *matrix.State[R]
	src   engine.Hashed
	tab   *paths.Table // the caller-owned path table; nil without paths
}

// chordRing is the E5 topology shape: a ring of n nodes with a chord from
// every 8th node to the node opposite it.
func chordRing[R any](n int, ring, chord func(i, j int) core.Edge[R]) *matrix.Adjacency[R] {
	adj := topology.Build[R](topology.Ring(n), ring)
	for i := 0; i < n; i += 8 {
		if j := (i + n/2) % n; j != i {
			adj.SetEdge(i, j, chord(i, j))
			adj.SetEdge(j, i, chord(j, i))
		}
	}
	return adj
}

// schedule is the E5 schedule shape at n nodes.
func schedule(n int, seed int64) engine.Hashed {
	return engine.Hashed{N: n, T: 10 * n, Seed: uint64(seed), MaxGap: 16, MaxStaleness: 8}
}

// dvInstance is experiment E5: hop-count distance vector at n = 512 from
// the identity state.
func dvInstance(seed int64) instance[algebras.NatInf] {
	const n = 512
	alg := algebras.HopCount{Limit: algebras.NatInf(2 * n)}
	adj := chordRing(n,
		func(int, int) core.Edge[algebras.NatInf] { return alg.AddEdge(1) },
		func(int, int) core.Edge[algebras.NatInf] { return alg.AddEdge(2) })
	return instance[algebras.NatInf]{alg: alg, adj: adj, start: matrix.Identity[algebras.NatInf](alg, n), src: schedule(n, seed)}
}

// pvProgram is the Section 7 policy every edge of pv-policy runs.
const pvProgram = "addc(3); if (comm(3)) { lp+=2 }"

// pvInstance is the policy-rich case: the interned Section 7 algebra over
// a caller-owned path table, the same shape as E5 at n = 256.
func pvInstance(seed int64) (instance[policy.IRoute], error) {
	const n = 256
	pol, err := policy.ParsePolicy(pvProgram)
	if err != nil {
		return instance[policy.IRoute]{}, err
	}
	tab := paths.NewTable()
	alg := policy.NewInterned(tab)
	edge := func(i, j int) core.Edge[policy.IRoute] { return alg.Edge(i, j, pol) }
	return instance[policy.IRoute]{
		alg: alg, adj: chordRing(n, edge, edge),
		start: matrix.Identity[policy.IRoute](alg, n), src: schedule(n, seed), tab: tab,
	}, nil
}

func runDV(cfg config) (*report, error) {
	return runEngine(cfg, func() (instance[algebras.NatInf], error) { return dvInstance(cfg.seed), nil }, dvCellsAtDefaultSeed)
}

func runPV(cfg config) (*report, error) {
	return runEngine(cfg, func() (instance[policy.IRoute], error) { return pvInstance(cfg.seed) }, pvCellsAtDefaultSeed)
}

// engineRun is one warm engine over its instance, with the reference
// outcome every timed run is checked against.
type engineRun[R any] struct {
	in    instance[R]
	eng   *engine.Engine[R]
	final *matrix.State[R]
	stats engine.Stats
	ops   int // runs issued so far, for request ids
}

// setupEngine builds the instance and the engine and completes the first
// (cold) run, checking it certified convergence on a σ-stable state.
func setupEngine[R any](build func() (instance[R], error)) (*engineRun[R], time.Duration, error) {
	t0 := time.Now()
	in, err := build()
	if err != nil {
		return nil, 0, err
	}
	eng := engine.New(in.alg, in.adj, engine.Config{})
	res := eng.Run(in.start, in.src)
	took := time.Since(t0)
	if _, ok := res.Converged(); !ok {
		eng.Close()
		return nil, 0, fmt.Errorf("first run did not certify convergence")
	}
	if !matrix.IsStable(in.alg, in.adj, res.Final()) {
		eng.Close()
		return nil, 0, fmt.Errorf("first run ended on a state that is not σ-stable")
	}
	return &engineRun[R]{in: in, eng: eng, final: res.Final(), stats: res.Stats()}, took, nil
}

// measure runs the engine back to back for dur, one caller, checking
// every run against the reference outcome. Allocations are bracketed
// around each Run call only, so the checks do not count.
func (er *engineRun[R]) measure(dur time.Duration, tr *tracer) *loop {
	lp := &loop{}
	end := time.Now().Add(dur)
	for time.Now().Before(end) {
		er.ops++
		id := fmt.Sprintf("op-%d", er.ops)
		root := tr.begin(0, id, "request")
		sp := tr.begin(root, id, "engine.run")
		m := startMem()
		t0 := time.Now()
		res := er.eng.Run(er.in.start, er.in.src)
		took := time.Since(t0)
		allocs, bytes := m.stop()
		tr.end(sp)
		tr.end(root)
		lp.ops++
		lp.wall += took
		lp.allocs += allocs
		lp.bytes += bytes
		st := res.Stats()
		_, conv := res.Converged()
		if !conv || st.CellsComputed != er.stats.CellsComputed || !res.Final().Equal(er.in.alg, er.final) {
			lp.failed++
			continue
		}
		lp.lats = append(lp.lats, ms(took))
		lp.cells += int64(st.CellsComputed)
	}
	return lp
}

// runEngine runs either engine workload.
func runEngine[R any](cfg config, build func() (instance[R], error), cellsAtDefault int) (*report, error) {
	var setups []float64
	var er *engineRun[R]
	for i := 0; i < setupReps; i++ {
		if er != nil {
			er.eng.Close()
		}
		var took time.Duration
		var err error
		if er, took, err = setupEngine(build); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, took.Seconds())
	}
	defer er.eng.Close()
	rep := &report{metrics: map[string]float64{}}
	rep.notef("instance: n=%d steps=%d cells/run=%d", er.final.N, er.stats.Steps, er.stats.CellsComputed)
	if cfg.seed == defaultSeed && er.stats.CellsComputed != cellsAtDefault {
		rep.attempted, rep.failed = 1, 1
		rep.notef("FAIL: cells/run %d at the default seed, recorded exact value %d", er.stats.CellsComputed, cellsAtDefault)
	}

	if !cfg.trace {
		rss := startRSS()
		lp := er.measure(cfg.seconds, nil)
		lp.rssMB = rss.peakMB()
		rep.attempted += lp.ops
		rep.failed += lp.failed
		rep.metrics = endToEndMetrics(setups, lp)
		noteLoop(rep, "measured", lp)
		return rep, nil
	}

	tr := newTracer()
	untraced, traced := tracedBlocks(cfg, tr, er.measure)
	rep.attempted += untraced.ops + traced.ops
	rep.failed += untraced.failed + traced.failed
	p50 := traceOverhead(rep, untraced, traced)
	self := noteSelfTimes(rep, tr)
	attribution(rep, median(traced.lats), map[string]float64{"engine": self["engine"]})

	oneMS, oneAllocs, err := oneProcRuns(build)
	if err != nil {
		return nil, err
	}
	engineMetrics(rep, er.stats, p50, ratio(float64(untraced.allocs), float64(untraced.ops)), oneMS, oneAllocs)

	algebraProbes(rep, tr, er.eng, er.in.alg, er.in.adj, er.final)
	rep.metrics["paths.table_size"] = 0
	if er.in.tab != nil {
		rep.metrics["paths.table_size"] = float64(er.in.tab.Size())
	}

	// The engine workloads bypass the service stack: its layers are
	// measured on their home workloads so every traced run reports them.
	if err := scenarioProbes(rep, tr, svcSliced.text(cfg.seed)); err != nil {
		return nil, err
	}
	if err := checkpointProbe(rep, tr, svcSliced.text(cfg.seed)); err != nil {
		return nil, err
	}
	if err := homeServiceProbe(rep, cfg, tr); err != nil {
		return nil, err
	}
	return rep, writeSpans(rep, cfg, tr)
}

// engineMetrics records the engine layer's metrics: a run's counters, its
// median time and allocations at GOMAXPROCS = nproc and at 1.
func engineMetrics(rep *report, st engine.Stats, runMS, allocs, oneMS, oneAllocs float64) {
	rep.metrics["engine.run_ms"] = runMS
	rep.metrics["engine.cells_per_run"] = float64(st.CellsComputed)
	rep.metrics["engine.rows_computed"] = float64(st.RowsComputed)
	rep.metrics["engine.rows_skipped"] = float64(st.RowsSkipped)
	rep.metrics["engine.skip_ratio"] = ratio(float64(st.RowsSkipped), float64(st.RowsComputed+st.RowsSkipped))
	rep.metrics["engine.steps"] = float64(st.Steps)
	rep.metrics["engine.ns_per_cell"] = ratio(runMS*1e6, float64(st.CellsComputed))
	rep.metrics["engine.allocs_per_run"] = allocs
	rep.metrics["engine.allocs_per_run_1proc"] = oneAllocs
	rep.metrics["engine.speedup_nproc"] = ratio(oneMS, runMS)
	rep.notef("engine at GOMAXPROCS=1: %.4g ms/run, %.0f allocs/run; at GOMAXPROCS=%d: %.4g ms/run, %.0f allocs/run",
		oneMS, oneAllocs, runtime.GOMAXPROCS(0), runMS, allocs)
}

// oneProcRuns times three warm runs of a fresh engine at GOMAXPROCS=1
// and returns the median milliseconds and allocations per run.
func oneProcRuns[R any](build func() (instance[R], error)) (float64, float64, error) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	er, _, err := setupEngine(build)
	if err != nil {
		return 0, 0, fmt.Errorf("GOMAXPROCS=1 setup: %w", err)
	}
	defer er.eng.Close()
	var lats, allocs []float64
	for i := 0; i < 3; i++ {
		m := startMem()
		t0 := time.Now()
		er.eng.Run(er.in.start, er.in.src)
		lats = append(lats, ms(time.Since(t0)))
		a, _ := m.stop()
		allocs = append(allocs, float64(a))
	}
	return median(lats), median(allocs), nil
}

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink any

// algebraProbes times the σ kernel, edge application and choice on a
// converged state x of the given instance.
func algebraProbes[R any](rep *report, tr *tracer, eng *engine.Engine[R], alg core.Algebra[R], adj *matrix.Adjacency[R], x *matrix.State[R]) {
	n := x.N
	cells := float64(n * n)
	out := matrix.NewState(n, alg.Invalid())
	var sig, app, cho []float64
	edges := adj.Edges()
	for k := 0; k < 5; k++ {
		id := fmt.Sprintf("probe-%d", k)
		sp := tr.begin(0, id, "matrix.sigma")
		t0 := time.Now()
		eng.SigmaInto(x, out)
		sig = append(sig, float64(time.Since(t0))/cells)
		tr.end(sp)

		// σ(X)ᵢⱼ applies edge (i,k) to Xₖⱼ: every edge over every
		// destination of the converged state.
		sp = tr.begin(0, id, "policy.edge_apply")
		var last R
		t0 = time.Now()
		for _, e := range edges {
			for j := 0; j < n; j++ {
				last = e.E.Apply(x.Get(e.J, j))
			}
		}
		app = append(app, float64(time.Since(t0))/float64(len(edges)*n))
		tr.end(sp)

		sp = tr.begin(0, id, "policy.choice")
		t0 = time.Now()
		for i := 0; i < n; i++ {
			k := (i + 1) % n
			for j := 0; j < n; j++ {
				last = alg.Choice(x.Get(i, j), x.Get(k, j))
			}
		}
		cho = append(cho, float64(time.Since(t0))/cells)
		tr.end(sp)
		sink = last
	}
	if !out.Equal(alg, x) {
		rep.failed++
		rep.notef("FAIL: σ of the converged state differs from it")
	}
	rep.attempted++
	rep.metrics["matrix.sigma_ns_per_cell"] = median(sig)
	rep.metrics["policy.edge_apply_ns"] = median(app)
	rep.metrics["policy.choice_ns"] = median(cho)
}
