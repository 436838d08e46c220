package paths

import (
	"runtime"
	"testing"
	"time"
)

// BenchmarkTableExtendSelWarm times ExtendSel hits on a warm table of
// about 100k paths shaped like a path-vector run: every node's shortest
// path to every destination, plus every one-arc extension of those by a
// neighbour that stays simple. One op re-extends every node's paths over
// every arc into it, in the sparse ExtendSel form restricted to the
// extensions that are hits, so ns/hit is the cost of one
// already-interned extension.
//
// A parent has one child per in-neighbour of its source, so the shapes
// span the in-degrees the child slots see:
//   - chord-ring-300, the E5 topology (a ring of 300 nodes with a two-way
//     chord from every 8th node to the node opposite): in-degree ≤ 3, so
//     every child of a non-empty parent sits in a slot;
//   - clique-48: in-degree 47, so most children overflow the slots;
//   - star-300: the hub's 299 in-neighbours extend each of its paths, so
//     nearly every child overflows.
//
// Besides ns/hit it reports the table size, the heap bytes the table
// holds per path, and overflow%, the share of hits answered by the
// overflow index rather than a slot or the empty-path index.
func BenchmarkTableExtendSelWarm(b *testing.B) {
	shapes := []struct {
		name string
		nbr  [][]int
	}{
		{"chord-ring-300", chordRing(300, 8)},
		{"clique-48", clique(48)},
		{"star-300", star(300)},
	}
	for _, s := range shapes {
		b.Run(s.name, func(b *testing.B) { benchExtendSelWarm(b, s.nbr) })
	}
}

// chordRing is a ring of n nodes with a two-way chord from every k-th
// node to the node opposite.
func chordRing(n, k int) [][]int {
	nbr := make([][]int, n)
	for u := range nbr {
		nbr[u] = append(nbr[u], (u+n-1)%n, (u+1)%n)
	}
	for u := 0; u < n; u += k {
		v := (u + n/2) % n
		nbr[u], nbr[v] = append(nbr[u], v), append(nbr[v], u)
	}
	return nbr
}

// clique is the full mesh on n nodes.
func clique(n int) [][]int {
	nbr := make([][]int, n)
	for u := range nbr {
		for v := 0; v < n; v++ {
			if v != u {
				nbr[u] = append(nbr[u], v)
			}
		}
	}
	return nbr
}

// star is node 0 joined to each of nodes 1 … n-1.
func star(n int) [][]int {
	nbr := make([][]int, n)
	for v := 1; v < n; v++ {
		nbr[0], nbr[v] = append(nbr[0], v), []int{0}
	}
	return nbr
}

func benchExtendSelWarm(b *testing.B, nbr [][]int) {
	n := len(nbr)
	// best[v][d] is a shortest path from v to d, built outwards from d
	// in BFS order so every path extends one already interned.
	best := make([][]PathID, n)
	for v := range best {
		best[v] = make([]PathID, n)
		for d := range best[v] {
			best[v][d] = InvalidID
		}
	}
	out := make([]PathID, n)
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	tab := NewTable()
	for d := 0; d < n; d++ {
		best[d][d] = EmptyID
		queue := []int{d}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, u := range nbr[v] {
				if best[u][d].IsInvalid() {
					best[u][d] = tab.Extend(best[v][d], u, v)
					queue = append(queue, u)
				}
			}
		}
	}
	for v := range nbr {
		for _, u := range nbr[v] {
			tab.ExtendSel(best[v], out, nil, 0, n, u, v) // interns every new extension
		}
	}
	bytes := heap() - before
	size := tab.Size()

	type arc struct {
		u, v int
		sel  []int32
	}
	var arcs []arc
	hits, overflow := 0, 0
	for v := range nbr {
		for _, u := range nbr[v] {
			tab.ExtendSel(best[v], out, nil, 0, n, u, v)
			a := arc{u: u, v: v}
			for d, id := range out {
				if id.IsInvalid() {
					continue
				}
				a.sel = append(a.sel, int32(d))
				if p := best[v][d]; p != EmptyID && !tab.inSlot(p, id) {
					overflow++
				}
			}
			hits += len(a.sel)
			arcs = append(arcs, a)
		}
	}
	b.ResetTimer()
	start := time.Now()
	for k := 0; k < b.N; k++ {
		for _, a := range arcs {
			tab.ExtendSel(best[a.v], out, a.sel, 0, n, a.u, a.v)
		}
	}
	elapsed := time.Since(start)
	if tab.Size() != size {
		b.Fatalf("warm sweep interned %d new paths", tab.Size()-size)
	}
	b.ReportMetric(float64(elapsed.Nanoseconds())/float64(b.N*hits), "ns/hit")
	b.ReportMetric(float64(size), "paths")
	b.ReportMetric(float64(bytes)/float64(size), "B/path")
	b.ReportMetric(100*float64(overflow)/float64(hits), "overflow%")
}

// inSlot reports whether child sits in one of p's child slots.
func (t *Table) inSlot(p, child PathID) bool {
	for _, c := range t.at(p).kids {
		if c.id == child {
			return true
		}
	}
	return false
}
