package engine

import (
	"errors"
	"fmt"

	"repro/internal/matrix"
)

// Session is one δ run kept live across calls. Start (or Resume, from a
// Snapshot) sets the run up; Advance evaluates it step by step up to a
// target; Result hands out the outcome once the run has finished. The
// evaluation state — history ring, incremental matrices, certification
// — stays in memory between Advance calls, so slicing a run into many
// Advance calls costs nothing over evaluating it in one: a run paused
// at step k needs nothing beyond its state at k, and a live session
// simply keeps that state. Snapshot captures it as a value only when
// durability asks for one (a checkpoint, a drain), without disturbing
// the run.
//
// A Session holds pooled run scratch of its engine until it finishes or
// is closed; Close a session that is abandoned before it finishes. It
// is not safe for concurrent use, but may be handed from one goroutine
// to another between calls.
type Session[R any] struct {
	st  stepper[R] // nil once finished or closed
	res *Result[R]
}

// stepper is the row-representation-erased side of a live run: *run[R,
// Row] for either representation.
type stepper[R any] interface {
	// advance evaluates up to step until, reporting whether the run
	// certified convergence.
	advance(until int) bool
	position() int
	end() int
	liveStats() Stats
	capture() (*Snapshot[R], error)
	// finish builds the Result and returns the scratch to the engine;
	// observe reports the run to the ObserveRuns hook.
	finish(observe bool) *Result[R]
	// release returns the scratch to the engine without a Result.
	release()
}

// Start begins a live run of δ from start over src, playing events (nil
// for none) at their steps, as RunTimeline does. Nothing is evaluated
// until Advance. It panics, like Run, on contract violations: a source
// over the wrong node count or a malformed timeline.
//
// The run evaluates on packed columnar lanes when the algebra packs, the
// topology compiles, the run has no timeline events and it does not
// retain its full history; otherwise on []R rows. Both are bit-identical
// in cells and Stats; timeline runs stay on []R rows because a mid-run
// mutation would invalidate the compiled kernels.
func (e *Engine[R]) Start(start *matrix.State[R], src Source, events []TimelineEvent[R]) *Session[R] {
	n := src.Nodes()
	if n != e.adj.N {
		panic(fmt.Sprintf("engine: source has %d nodes but adjacency has %d", n, e.adj.N))
	}
	validateTimeline(events, n, src.Horizon())
	window, doTerm, fairP := e.planRun(src)
	return e.session(start, nil, src, events, window, doTerm, fairP)
}

// Resume rebuilds a live run from snap and continues it over src from
// step snap.Step+1. events are the timeline events still to fire —
// exactly those whose Step exceeds snap.Step; the caller replays the
// earlier events' mutations onto the topology before building the
// engine. src must describe the schedule the snapshot was taken under
// (for the engine's lazy sources, equal parameters; for materialised
// schedules, the same recording), and the engine must be built over the
// same algebra and topology with the same incremental and termination
// configuration. Everything observable is validated and returned as an
// error — a corrupt or mismatched snapshot never panics. The
// continuation is bit-identical, in cells and work counters, to the run
// that was never paused.
func (e *Engine[R]) Resume(snap *Snapshot[R], src Source, events []TimelineEvent[R]) (*Session[R], error) {
	if err := snap.validate(); err != nil {
		return nil, err
	}
	n := src.Nodes()
	if n != e.adj.N {
		return nil, fmt.Errorf("engine: source has %d nodes but adjacency has %d", n, e.adj.N)
	}
	if snap.N != n {
		return nil, fmt.Errorf("engine: snapshot has %d nodes but source has %d", snap.N, n)
	}
	window, doTerm, fairP := e.planRun(src)
	if window != snap.Window {
		return nil, fmt.Errorf("engine: snapshot window %d but this run resolves window %d", snap.Window, window)
	}
	if snap.Incremental != e.incremental {
		return nil, fmt.Errorf("engine: snapshot incremental=%v but engine incremental=%v", snap.Incremental, e.incremental)
	}
	if doTerm != (snap.Certified != nil) {
		return nil, fmt.Errorf("engine: snapshot certifying=%v but this run certifying=%v", snap.Certified != nil, doTerm)
	}
	T := src.Horizon()
	if snap.Step > T {
		return nil, fmt.Errorf("engine: snapshot at step %d beyond horizon %d", snap.Step, T)
	}
	validateTimeline(events, n, T)
	if len(events) > 0 && events[0].Step <= snap.Step {
		return nil, fmt.Errorf("engine: timeline event at step %d not after snapshot step %d (already-fired events must not be replayed)",
			events[0].Step, snap.Step)
	}
	return e.session(nil, snap, src, events, window, doTerm, fairP), nil
}

// session picks the row representation and sets the run up from start
// or, when snap is non-nil, from the snapshot.
func (e *Engine[R]) session(start *matrix.State[R], snap *Snapshot[R], src Source, events []TimelineEvent[R], window int, doTerm bool, fairP int) *Session[R] {
	if len(events) == 0 && window >= 0 && e.interning && e.columnar {
		if cs := e.columnarFor(); cs != nil {
			return &Session[R]{st: setupRun(e, &colOps[R]{e: e, cs: cs}, start, snap, src, events, window, doTerm, fairP)}
		}
	}
	return &Session[R]{st: setupRun(e, genOps[R]{e: e}, start, snap, src, events, window, doTerm, fairP)}
}

// Advance evaluates the run up to and including step target (clamped to
// the horizon), stopping early when the run certifies convergence, and
// reports whether the run has finished — horizon reached or convergence
// certified. A finished run's Result is available and its scratch is
// back with the engine. A target at or before Step evaluates nothing.
// Advance panics on a closed session.
func (s *Session[R]) Advance(target int) (done bool) {
	if s.res != nil {
		return true
	}
	if s.st == nil {
		panic("engine: Advance on a closed session")
	}
	T := s.st.end()
	if target > T {
		target = T
	}
	if s.st.advance(target) || s.st.position() == T {
		s.finish(true)
		return true
	}
	return false
}

func (s *Session[R]) finish(observe bool) *Result[R] {
	s.res = s.st.finish(observe)
	s.st = nil
	return s.res
}

// Step returns the last completed step: 0 before the first Advance, the
// snapshot's step right after Resume, the final step once finished, and
// 0 after Close.
func (s *Session[R]) Step() int {
	switch {
	case s.res != nil:
		return s.res.Horizon()
	case s.st != nil:
		return s.st.position()
	}
	return 0
}

// Stats returns the run's counters so far: the final Stats once the run
// has finished, the cumulative counters at Step while it is live (cells
// folded in, ConvergedAt −1), zero after Close.
func (s *Session[R]) Stats() Stats {
	switch {
	case s.res != nil:
		return s.res.Stats()
	case s.st != nil:
		return s.st.liveStats()
	}
	return Stats{}
}

// Snapshot captures the complete resumable state of the live run at Step
// without disturbing it. It fails before the first step, on a timeline
// event step (pause one step later: there is no activation to capture
// after), on a run retaining its full history (no compact resumable
// state), and on a finished or closed session.
func (s *Session[R]) Snapshot() (*Snapshot[R], error) {
	if s.st == nil {
		return nil, errors.New("engine: snapshot of a finished or closed session")
	}
	return s.st.capture()
}

// Result returns the finished run's Result, or nil while the run is live.
func (s *Session[R]) Result() *Result[R] { return s.res }

// Close abandons a live run, returning its scratch to the engine. A run
// closed before it finishes is not a completed run: ObserveRuns does not
// see it. Closing a finished or closed session does nothing.
func (s *Session[R]) Close() {
	if s.st != nil {
		s.st.release()
		s.st = nil
	}
}

// setupRun acquires the run scratch and brings it to its starting point:
// step 0 from start, or — when rs is non-nil — step rs.Step with the
// history ring repopulated from the snapshot's materialised states, the
// exact incremental matrices restored and the derived dirty summaries
// rebuilt from them. From there advance proceeds exactly as the
// uninterrupted run did.
func setupRun[R, Row any](e *Engine[R], ops rowOps[R, Row], start *matrix.State[R], rs *Snapshot[R],
	src Source, events []TimelineEvent[R], window int, doTerm bool, fairP int) *run[R, Row] {
	n, T := src.Nodes(), src.Horizon()
	r := acquireRun(e, ops, n, window, T)
	r.src, r.horizon, r.doTerm, r.fairP = src, T, doTerm, fairP
	nbr, nbrOff := neighbours(e, r)
	r.adj = ops.adjFor()

	if rs == nil {
		s0 := r.newHeader(n)
		for i := range s0 {
			row := r.newRow(n)
			ops.encodeRow(row, start.RowView(i))
			s0[i] = row
		}
		r.put(0, s0)
		r.prev, r.t = s0, 0
	} else {
		base := rs.Step - len(rs.States) + 1
		for idx, st := range rs.States {
			s := r.newHeader(n)
			for i := 0; i < n; i++ {
				row := r.newRow(n)
				ops.encodeRow(row, st.RowView(i))
				s[i] = row
			}
			r.put(base+idx, s)
			r.prev = s
		}
		r.t = rs.Step
		if e.incremental {
			copy(r.inc.ver, rs.Ver)
			copy(r.lastComp, rs.LastComp)
			copy(r.lastRead, rs.LastRead)
			rebuildIncSummaries(r.inc, rs.Step)
		}
		r.stats = rs.Stats
	}

	// Per-step incremental scratch. loArena backs the per-task threshold
	// slices; its capacity covers every active row's degree, so in-step
	// appends never reallocate out from under earlier tasks.
	if e.incremental {
		if cap(r.loArena) < len(nbr) {
			r.loArena = make([]int32, 0, len(nbr))
		}
		if d := maxDegree(nbrOff); len(r.betaBuf) < d {
			r.betaBuf = make([]int, d)
		}
	}
	r.certGen, r.nCert, r.lastChange, r.converged = 1, 0, 0, false
	if doTerm {
		if cap(r.actMinB) < n {
			r.actMinB = make([]int32, 0, n)
			r.actNodes = make([]int32, 0, n)
		}
		if len(r.certStmp) != n {
			r.certStmp = make([]int32, n)
		} else {
			clear(r.certStmp)
		}
		if rs != nil {
			// Restore the certification state: the generation counter
			// restarts at 1, but only membership matters — the restored set
			// and last-change step make every future certify/terminate
			// decision identical to the uninterrupted run's.
			r.lastChange = rs.LastChange
			for i, c := range rs.Certified {
				if c {
					r.certStmp[i] = r.certGen
					r.nCert++
				}
			}
		}
	}
	r.tl = timeline[R]{events: events}
	if len(events) > 0 {
		r.marks = make([]*matrix.State[R], 0, len(events))
	}
	return r
}

// advance is the evaluation loop shared by every row representation: it
// evaluates steps r.t+1 … until, returning early — and reporting true —
// when convergence is certified. The loop state lives in locals for the
// duration of the call and goes back into the run on exit.
func (r *run[R, Row]) advance(until int) bool {
	e, ops, src := r.e, r.ops, r.src
	n := r.n
	nbr, nbrOff := r.nbr, r.nbrOff[:n+1]
	tl := &r.tl
	doTerm, fairP := r.doTerm, r.fairP

	actives := r.actives[:0]
	tabs := r.tabs // per-node β-resolved table scratch
	tasks := r.tasks

	var (
		loArena  []int32
		betaBuf  []int
		actMinB  []int32 // per processed activation: node and min β, for certification
		actNodes []int32
		certStmp []int32
	)
	certGen, nCert := r.certGen, r.nCert
	// pendRows/pendLo collect the rows that survive the skip pass; tasks
	// are built afterwards so the column-shard decision sees the number of
	// rows actually computing, not the raw active count (in a convergence
	// tail most activations skip, and sharding over the survivors is what
	// keeps the pool busy). pendLo is the row's offset into loArena, −1
	// for a full (first-activation or non-incremental) recomputation.
	pendRows := r.pendRows[:0]
	pendLo := r.pendLo[:0]
	if e.incremental {
		loArena = r.loArena[:0]
		betaBuf = r.betaBuf
	}
	if doTerm {
		actMinB = r.actMinB[:0]
		actNodes = r.actNodes[:0]
		certStmp = r.certStmp
	}
	lastChange := r.lastChange
	prev := r.prev
	converged := false

	t := r.t
	for t < until {
		t++
		if tl.next < len(tl.events) && tl.events[tl.next].Step == t {
			// Timeline event step: no node activates. Restarted nodes'
			// rows are replaced by the identity row (recorded as changes
			// so neighbours recompute), then the mutation edits the
			// adjacency in place and the affected rows are invalidated so
			// their next activation recomputes in full — with change
			// tracking, so only genuinely moved columns propagate.
			ev := &tl.events[tl.next]
			tl.next++
			cur := r.newHeader(n)
			copy(cur, prev)
			if len(ev.Restart) > 0 {
				var prevSnap *matrix.State[R]
				var scratch []R
				if e.incremental {
					prevSnap = ops.materialise(prev)
				}
				for _, i := range ev.Restart {
					if scratch == nil {
						scratch = make([]R, n)
					}
					for j := range scratch {
						scratch[j] = e.alg.Invalid()
					}
					scratch[i] = e.alg.Trivial()
					row := r.newRow(n)
					ops.encodeRow(row, scratch)
					cur[i] = row
					if e.incremental {
						old := prevSnap.RowView(i)
						chgI := &r.chg[i]
						for j := 0; j < n; j++ {
							if !e.alg.Equal(scratch[j], old[j]) {
								chgI.Set(j)
							}
						}
						r.foldRowChanges(i, t)
						r.lastComp[i] = -1
					}
				}
			}
			if ev.Mutate != nil {
				ev.Mutate(e.adj)
				// Policy-state edits can change edge behaviour without
				// moving the adjacency generation; bump it so memoised
				// views and compiled kernels can never be served stale.
				e.adj.Touch()
				nbr, nbrOff = neighbours(e, r)
				r.adj = ops.adjFor()
				if e.incremental {
					if d := maxDegree(nbrOff); len(r.betaBuf) < d {
						r.betaBuf = make([]int, d)
						betaBuf = r.betaBuf
					}
					if ev.Rows == nil {
						for i := range r.lastComp {
							r.lastComp[i] = -1
						}
					} else {
						for _, i := range ev.Rows {
							r.lastComp[i] = -1
						}
					}
				}
			}
			if e.incremental {
				for _, i := range ev.Invalidate {
					r.lastComp[i] = -1
				}
				r.inc.top = int32(t)
			}
			r.put(t, cur)
			prev = cur
			r.marks = append(r.marks, ops.materialise(cur))
			// An event reopens the convergence question from scratch.
			lastChange = t
			certGen++
			nCert = 0
			r.stats.Events++
			continue
		}
		actives = actives[:0]
		for i := 0; i < n; i++ {
			if src.Active(t, i) {
				actives = append(actives, i)
			}
		}
		cur := r.newHeader(n)
		copy(cur, prev)
		stepChanged := false
		if len(actives) > 0 {
			pendRows = pendRows[:0]
			pendLo = pendLo[:0]
			if e.incremental {
				loArena = loArena[:0]
			}
			if doTerm {
				actMinB = actMinB[:0]
				actNodes = actNodes[:0]
			}
			stepOps := 0
			for _, i := range actives {
				nb := nbr[nbrOff[i]:nbrOff[i+1]]
				minB := t
				if e.incremental && r.lastComp[i] >= 0 {
					// The node has a previous row. Decide in O(deg) whether
					// any β-resolved input changed since it was computed;
					// if not, the row is structurally unchanged — skip it.
					base := i * n
					arena0 := len(loArena)
					skip := true
					for ai, k32 := range nb {
						k := int(k32)
						b := src.Beta(t, i, k)
						if b < minB {
							minB = b
						}
						betaBuf[ai] = b
						b0 := int(r.lastRead[base+k])
						lo := b
						if b0 < lo {
							lo = b0
						}
						loArena = append(loArena, int32(lo))
						if int(r.inc.rowMax[k]) > lo {
							skip = false
						}
					}
					if skip {
						r.stats.RowsSkipped++
						for ai, k32 := range nb {
							// The kept row is also valid against the fresher
							// read time — advance it to maximise future skips.
							if slot := base + int(k32); int32(betaBuf[ai]) > r.lastRead[slot] {
								r.lastRead[slot] = int32(betaBuf[ai])
							}
						}
						loArena = loArena[:arena0]
					} else {
						tb := tabs[i]
						if tb == nil {
							tb = r.newHeader(n)
							tabs[i] = tb
						}
						for ai, k32 := range nb {
							k := int(k32)
							tb[k] = r.at(t, betaBuf[ai])[k]
							r.lastRead[base+k] = int32(betaBuf[ai])
						}
						r.lastComp[i] = int32(t)
						cur[i] = r.newRow(n)
						pendRows = append(pendRows, int32(i))
						pendLo = append(pendLo, int32(arena0))
						stepOps += n * (len(nb) + 1) // dirty scan; the kernel may touch far fewer cells
					}
				} else {
					// Full recomputation: the non-incremental path, and a
					// node's first activation (nothing to reuse yet). In
					// incremental mode the full kernel still tracks changes
					// against the node's starting row, so ConvergedAt and
					// FixedPoint round counts stay exact.
					tb := tabs[i]
					if tb == nil {
						tb = r.newHeader(n)
						tabs[i] = tb
					}
					for _, k32 := range nb {
						k := int(k32)
						b := src.Beta(t, i, k)
						if b < minB {
							minB = b
						}
						tb[k] = r.at(t, b)[k]
						if e.incremental {
							r.lastRead[i*n+k] = int32(b)
						}
					}
					cur[i] = r.newRow(n)
					pendRows = append(pendRows, int32(i))
					pendLo = append(pendLo, -1)
					stepOps += n * n
					if e.incremental {
						r.lastComp[i] = int32(t)
					} else {
						r.stats.CellsComputed += n
					}
				}
				if doTerm {
					actNodes = append(actNodes, int32(i))
					actMinB = append(actMinB, int32(minB))
				}
			}
			if len(pendRows) > 0 {
				tasks = tasks[:0]
				shards := e.shardsFor(len(pendRows), n)
				for pi, i32 := range pendRows {
					i := int(i32)
					nb := nbr[nbrOff[i]:nbrOff[i+1]]
					tb := tabs[i]
					dst := cur[i]
					var (
						incp    *incShared
						prevRow Row
						lo      []int32
						chgI    *matrix.Bitset
					)
					if e.incremental {
						incp = r.inc
						prevRow = prev[i]
						chgI = &r.chg[i]
						if off := int(pendLo[pi]); off >= 0 {
							lo = loArena[off : off+len(nb) : off+len(nb)]
						}
					}
					for s := 0; s < shards; s++ {
						tasks = append(tasks, rowTask[R, Row]{
							i: i, j0: s * n / shards, j1: (s + 1) * n / shards,
							adj: r.adj, tabs: tb, dst: dst,
							inc: incp, prev: prevRow, nbr: nb, lo: lo, chg: chgI,
						})
					}
				}
				r.exec(tasks, stepOps)
			}
			r.stats.RowsComputed += len(pendRows)

			// Serial fold: publish this step's changed-destination sets
			// into the last-changed matrix, the change-mask ring, and the
			// global dirty frontier.
			if e.incremental {
				for _, fi := range pendRows {
					if r.foldRowChanges(int(fi), t) {
						stepChanged = true
					}
				}
				r.inc.top = int32(t)
			}
		}
		r.put(t, cur)
		prev = cur

		if doTerm {
			// Convergence certification. A change at t opens a new
			// generation: every node must re-verify its row against data
			// generated at or after the change. An activation whose every
			// β lands at or after lastChange and that produced no change
			// (skips qualify — their inputs provably didn't move) is such
			// a verification. Once all n nodes are certified AND the
			// frontier has been quiet for a full fairness period — so no
			// future β can reach back before lastChange — the state is a
			// fixed point that no schedule continuation can disturb.
			if stepChanged {
				lastChange = t
				certGen++
				nCert = 0
			}
			for idx, i32 := range actNodes {
				if int(actMinB[idx]) >= lastChange && certStmp[i32] != certGen {
					certStmp[i32] = certGen
					nCert++
				}
			}
			if nCert == n && t-lastChange >= fairP-1 && tl.next >= len(tl.events) {
				// With timeline events still pending, a certified fixed
				// point is only an interlude — the next event will
				// perturb it, so the run must keep marching.
				converged = true
				break
			}
		}
	}

	// Hand the loop state, and any backing a loop may have grown, back to
	// the run.
	r.t, r.prev, r.converged = t, prev, converged
	r.lastChange, r.certGen, r.nCert = lastChange, certGen, nCert
	r.actives, r.tasks = actives[:0], tasks[:0]
	r.pendRows, r.pendLo = pendRows[:0], pendLo[:0]
	if e.incremental {
		r.loArena = loArena[:0]
	}
	if doTerm {
		r.actMinB, r.actNodes = actMinB[:0], actNodes[:0]
	}
	return converged
}

func (r *run[R, Row]) position() int { return r.t }

func (r *run[R, Row]) end() int { return r.horizon }

// liveStats returns the counters at the current step, cells folded in.
func (r *run[R, Row]) liveStats() Stats {
	s := r.stats
	s.Steps = r.t
	s.ConvergedAt = -1
	if r.e.incremental {
		s.CellsComputed += int(r.inc.cells.Load())
	}
	return s
}

func (r *run[R, Row]) capture() (*Snapshot[R], error) {
	switch {
	case r.window < 0:
		return nil, errors.New("engine: snapshot needs a bounded history window (the source must be Bounded or Fair, or set Config.HistoryWindow > 0)")
	case r.t < 1:
		return nil, errors.New("engine: nothing to snapshot before step 1")
	case eventAt(r.tl.events, r.t):
		return nil, fmt.Errorf("engine: step %d is a timeline event step (no activation to capture after)", r.t)
	}
	return captureSnapshot(r), nil
}

func (r *run[R, Row]) finish(observe bool) *Result[R] {
	e := r.e
	r.stats.Steps = r.t
	if e.incremental {
		r.stats.CellsComputed += int(r.inc.cells.Load())
	}
	if r.converged {
		r.stats.ConvergedAt = r.lastChange
	} else {
		r.stats.ConvergedAt = -1
	}
	if r.window < 0 {
		r.stats.Retained = len(r.all)
	} else {
		for _, s := range r.ring {
			if s != nil {
				r.stats.Retained++
			}
		}
	}
	res := &Result[R]{alg: e.alg, horizon: r.t, final: r.ops.materialise(r.prev), stats: r.stats, marks: r.marks}
	if observe {
		observeRun(r.stats)
	}
	if r.window < 0 {
		r.ops.retain(res, r.all)
	}
	releaseRun(e, r)
	return res
}

func (r *run[R, Row]) release() { releaseRun(r.e, r) }
