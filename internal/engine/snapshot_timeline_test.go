package engine_test

import (
	"fmt"
	"testing"

	"repro/internal/algebras"
	"repro/internal/engine"
	"repro/internal/matrix"
)

// The preemption contract: a timeline run chopped into quanta — a live
// Session advanced quantum by quantum, or a session snapshotted at each
// quantum end and resumed from the snapshot — must be bit-identical, in
// cells and counters, to the run that was never paused. This holds when
// the session stays live (snapshots taken along the way must not perturb
// it), when the same engine resumes (in-process preemption: its
// adjacency already carries the fired events' mutations) and when a
// fresh engine resumes from a fresh adjacency with those mutations
// replayed (the cross-process drain / restart path a checkpointing
// service takes).

// flapEvents is a link-flap timeline over meshNet: cut a chord, restore
// it, cut another, then restore it with a node restart. The Mutate
// closures take the adjacency as a parameter, so one event list replays
// onto any number of fresh topologies.
func flapEvents(alg algebras.HopCount) []engine.TimelineEvent[algebras.NatInf] {
	set := func(i, j int, up bool) func(adj *matrix.Adjacency[algebras.NatInf]) {
		return func(adj *matrix.Adjacency[algebras.NatInf]) {
			if up {
				adj.SetEdge(i, j, alg.AddEdge(1))
				adj.SetEdge(j, i, alg.AddEdge(1))
			} else {
				adj.SetEdge(i, j, nil)
				adj.SetEdge(j, i, nil)
			}
		}
	}
	return []engine.TimelineEvent[algebras.NatInf]{
		{Step: 20, Mutate: set(0, 6, false), Rows: []int{0, 6}},
		{Step: 45, Mutate: set(0, 6, true), Rows: []int{0, 6}},
		{Step: 70, Mutate: set(3, 9, false), Rows: []int{3, 9}},
		{Step: 95, Mutate: set(3, 9, true), Rows: []int{3, 9}, Restart: []int{2}},
	}
}

// remainingEvents returns the suffix of events strictly after step.
func remainingEvents(events []engine.TimelineEvent[algebras.NatInf], step int) []engine.TimelineEvent[algebras.NatInf] {
	i := 0
	for i < len(events) && events[i].Step <= step {
		i++
	}
	return events[i:]
}

// nextQuantumEnd picks the step a slice should snapshot at: quantum
// steps past from, bumped past any event step (an event step performs no
// activation, so there is nothing to capture after it). 0 means the
// remaining run fits in the quantum — run to completion with no plan.
func nextQuantumEnd(from, quantum, T int, isEvent map[int]bool) int {
	at := from + quantum
	for at <= T && isEvent[at] {
		at++
	}
	if at > T {
		return 0
	}
	return at
}

func TestTimelineSnapshotSlicedDifferential(t *testing.T) {
	alg, _ := meshNet()
	events := flapEvents(alg)
	isEvent := map[int]bool{}
	for _, ev := range events {
		isEvent[ev.Step] = true
	}
	const T = 140
	n := 12
	src := engine.Hashed{N: n, T: T, Seed: 23, MaxGap: 6, MaxStaleness: 5}
	start := matrix.Identity[algebras.NatInf](alg, n)

	for _, cfg := range []struct {
		label string
		conf  engine.Config
	}{
		{"incremental", engine.Config{}},
		{"full", engine.Config{Incremental: engine.IncOff}},
	} {
		for _, quantum := range []int{7, 17, 50} {
			label := fmt.Sprintf("%s quantum=%d", cfg.label, quantum)

			// The uninterrupted run.
			_, fullAdj := meshNet()
			fullEng := engine.New(alg, fullAdj, cfg.conf)
			full := fullEng.RunTimeline(start, src, events)
			fullEng.Close()

			// Live preemption: one session advanced quantum by quantum,
			// snapshotted at every quantum end without being disturbed.
			_, liveAdj := meshNet()
			liveEng := engine.New(alg, liveAdj, cfg.conf)
			live := liveEng.Start(start, src, events)
			slices := 0
			for at := nextQuantumEnd(0, quantum, T, isEvent); at != 0; at = nextQuantumEnd(live.Step(), quantum, T, isEvent) {
				if live.Advance(at) {
					break
				}
				snap, err := live.Snapshot()
				if err != nil {
					t.Fatalf("%s: live slice %d: %v", label, slices, err)
				}
				if snap.Step != at {
					t.Fatalf("%s: live snapshot at step %d, want %d", label, snap.Step, at)
				}
				slices++
			}
			if slices < 2 {
				t.Fatalf("%s: run never sliced (quantum too big for horizon?)", label)
			}
			if !live.Advance(T) {
				t.Fatalf("%s: live session did not finish at the horizon", label)
			}
			identicalStates(t, label+" live final", live.Result().Final(), full.Final())
			statsMatch(t, label+" live", live.Result().Stats(), full.Stats())
			liveEng.Close()

			// In-process preemption: one engine; at every quantum end the
			// session is snapshotted, closed, and resumed from the snapshot.
			// The engine's adjacency accumulates the events' mutations as
			// the slices play them.
			_, adj := meshNet()
			eng := engine.New(alg, adj, cfg.conf)
			res, snap := sliceTo(t, eng.Start(start, src, events), nextQuantumEnd(0, quantum, T, isEvent))
			slices = 1
			for snap != nil {
				s, err := eng.Resume(snap, src, remainingEvents(events, snap.Step))
				if err != nil {
					t.Fatalf("%s: slice %d: %v", label, slices, err)
				}
				res, snap = sliceTo(t, s, nextQuantumEnd(snap.Step, quantum, T, isEvent))
				slices++
			}
			if slices < 2 {
				t.Fatalf("%s: run never sliced (quantum too big for horizon?)", label)
			}
			identicalStates(t, label+" sliced final", res.Final(), full.Final())
			statsMatch(t, label+" sliced", res.Stats(), full.Stats())
			eng.Close()

			// Cross-process resume: every slice resumes on a FRESH engine
			// over a FRESH topology with the already-fired events' mutations
			// replayed — exactly what a daemon does when it reloads a spooled
			// checkpoint after a restart.
			_, adj0 := meshNet()
			eng0 := engine.New(alg, adj0, cfg.conf)
			res, snap = sliceTo(t, eng0.Start(start, src, events), nextQuantumEnd(0, quantum, T, isEvent))
			eng0.Close()
			for snap != nil {
				_, fresh := meshNet()
				for _, ev := range events {
					if ev.Step > snap.Step {
						break
					}
					if ev.Mutate != nil {
						ev.Mutate(fresh)
					}
				}
				e2 := engine.New(alg, fresh, cfg.conf)
				s, err := e2.Resume(snap, src, remainingEvents(events, snap.Step))
				if err != nil {
					t.Fatalf("%s: fresh-engine resume: %v", label, err)
				}
				res, snap = sliceTo(t, s, nextQuantumEnd(snap.Step, quantum, T, isEvent))
				e2.Close()
			}
			identicalStates(t, label+" fresh-engine final", res.Final(), full.Final())
			statsMatch(t, label+" fresh-engine", res.Stats(), full.Stats())
		}
	}
}

// sliceTo advances s to step at and pauses it there: it returns the
// snapshot at that step, with the session closed, or — when the run
// finishes first or at is 0 (run to completion) — the finished Result.
func sliceTo[R any](t *testing.T, s *engine.Session[R], at int) (*engine.Result[R], *engine.Snapshot[R]) {
	t.Helper()
	if at == 0 {
		at = s.Step() + 1<<30
	}
	if s.Advance(at) {
		return s.Result(), nil
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatalf("snapshot at step %d: %v", at, err)
	}
	s.Close()
	return nil, snap
}

// TestRestoreTimelineRejectsBadShapes pins the validation surface of the
// resume primitive: stale events and snapshots on event steps must be
// clean errors, and a target in the past must evaluate nothing — never a
// wedged or silently wrong run.
func TestRestoreTimelineRejectsBadShapes(t *testing.T) {
	alg, _ := meshNet()
	events := flapEvents(alg)
	n := 12
	src := engine.Hashed{N: n, T: 140, Seed: 23, MaxGap: 6, MaxStaleness: 5}
	start := matrix.Identity[algebras.NatInf](alg, n)

	_, adj := meshNet()
	eng := engine.New(alg, adj, engine.Config{})
	defer eng.Close()
	_, snap := sliceTo(t, eng.Start(start, src, events), 30)
	if snap == nil || snap.Step != 30 {
		t.Fatal("no snapshot at step 30")
	}

	// An event at or before the snapshot step can never fire again; the
	// caller must pass only the remaining suffix.
	if _, err := eng.Resume(snap, src, events); err == nil {
		t.Fatal("Resume accepted an already-fired event")
	}
	s, err := eng.Resume(snap, src, remainingEvents(events, 30))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// A snapshot on an event step has no activation to capture after.
	if s.Advance(45) {
		t.Fatal("run finished at step 45")
	}
	if _, err := s.Snapshot(); err == nil {
		t.Fatal("Snapshot accepted a timeline event step")
	}
	// A target at or before the current step is in the past.
	if s.Advance(30) || s.Step() != 45 {
		t.Fatalf("Advance to a past target moved the run to step %d", s.Step())
	}
}
