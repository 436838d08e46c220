package engine_test

import (
	"sync"
	"testing"

	"repro/internal/algebras"
	"repro/internal/engine"
	"repro/internal/matrix"
)

// The observer contract: one call per completed run with its final
// Stats; a snapshot-halt preemption observes nothing (the resumed run
// observes once, with cumulative counters); a live session sliced into
// many Advance calls observes once, when it finishes; a session closed
// before it finishes observes nothing; removal stops the calls.
func TestObserveRuns(t *testing.T) {
	var mu sync.Mutex
	var seen []engine.Stats
	engine.ObserveRuns(func(s engine.Stats) {
		mu.Lock()
		seen = append(seen, s)
		mu.Unlock()
	})
	defer engine.ObserveRuns(nil)
	count := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(seen)
	}

	alg, adj, _ := hopNet()
	n := adj.N
	start := matrix.Identity[algebras.NatInf](alg, n)
	src := engine.Hashed{N: n, T: 200, Seed: 3, MaxGap: 6, MaxStaleness: 5}
	eng := engine.New(alg, adj, engine.Config{})
	defer eng.Close()

	res := eng.Run(start, src)
	if count() != 1 {
		t.Fatalf("completed run observed %d times, want 1", count())
	}
	if seen[0] != res.Stats() {
		t.Fatalf("observed %+v, result says %+v", seen[0], res.Stats())
	}

	// Preemption: halting at step 3 is not a completion.
	_, snap := eng.RunSnapshot(start, src, 3, true)
	if snap == nil {
		t.Fatal("no snapshot captured")
	}
	if count() != 1 {
		t.Fatalf("halted run observed (count %d), preemptions must not observe", count())
	}

	// The resumed continuation completes and observes once, with the
	// cumulative stats of the whole logical run.
	resumed, err := eng.Restore(snap, src)
	if err != nil {
		t.Fatal(err)
	}
	if count() != 2 {
		t.Fatalf("resumed run observed %d times total, want 2", count())
	}
	if seen[1] != resumed.Stats() {
		t.Fatalf("observed %+v, resumed result says %+v", seen[1], resumed.Stats())
	}

	// A non-halting snapshot run completes normally and observes.
	full, _ := eng.RunSnapshot(start, src, 3, false)
	if count() != 3 {
		t.Fatalf("snapshotting run observed %d times total, want 3", count())
	}
	if seen[2] != full.Stats() {
		t.Fatalf("observed %+v, result says %+v", seen[2], full.Stats())
	}

	// A live session advanced one step per call is still one run.
	s := eng.Start(start, src, nil)
	quanta := 0
	for !s.Advance(s.Step() + 1) {
		quanta++
	}
	if quanta < 2 {
		t.Fatalf("session finished in %d quanta; the slicing proves nothing", quanta+1)
	}
	if count() != 4 {
		t.Fatalf("session sliced into %d quanta observed %d times total, want 4", quanta+1, count())
	}
	if seen[3] != s.Result().Stats() || seen[3] != res.Stats() {
		t.Fatalf("sliced session observed %+v, result says %+v, unsliced run %+v", seen[3], s.Result().Stats(), res.Stats())
	}

	// A session abandoned mid-run is not a completion.
	s = eng.Start(start, src, nil)
	if s.Advance(5) {
		t.Fatal("run finished within 5 steps")
	}
	s.Close()
	if count() != 4 {
		t.Fatalf("session closed before finishing observed (count %d), want none", count())
	}

	engine.ObserveRuns(nil)
	eng.Run(start, src)
	if count() != 4 {
		t.Fatalf("removed observer still fired (count %d)", count())
	}
}
