// Hash-consed path interning: a Table assigns every simple path a small
// integer PathID such that equal paths always receive the same id. Paths
// are stored as a parent-pointer trie — an interned non-empty path is
// (parent PathID, head Arc), the head arc prepended to the parent path —
// and each entry also records its first few children inline. A non-empty
// path p can only be extended by an arc (i, head(p).From), so an Extend
// hit on one of those children is one entry load: check the source, then
// scan the child slots for i. An extension of the empty path costs one
// map probe, and a child beyond the slot count the entry load plus a map
// probe. Extend is allocation-free once the path exists, equality is a
// single integer compare, and loop detection consults a per-id
// node-membership summary (a bloom word) before falling back to the
// parent walk. The Table is safe for concurrent use; lookups of
// already-interned paths proceed under a shared read lock.
//
// This is the NDN-DPDK recipe — intern variable-length name-like data
// into fixed-size ids with pooled storage — applied to the simple paths
// of Section 5.1: convergence workloads re-extend near-identical routes
// over and over, which hash-consing collapses into table hits.
package paths

import (
	"cmp"
	"sync"
)

// PathID identifies an interned path within one Table. Ids from different
// tables are not comparable. The zero value is EmptyID, matching Path's
// zero value being the empty path.
type PathID int32

const (
	// EmptyID is the id of the empty path [] in every table.
	EmptyID PathID = 0
	// InvalidID is the id of the invalid path ⊥ in every table.
	InvalidID PathID = -1
)

// IsInvalid reports whether the id denotes ⊥.
func (p PathID) IsInvalid() bool { return p < 0 }

// IsEmpty reports whether the id denotes [].
func (p PathID) IsEmpty() bool { return p == EmptyID }

// kidSlots is how many children an entry records inline. A path has at
// most one child per in-neighbour of its source, so on topologies whose
// in-degrees are at most kidSlots — the ring with chords of the E5 and
// pv-policy workloads — every hit on a non-empty parent is answered by a
// slot. Where in-degrees are higher (a clique, a star's hub) most
// children overflow into the map, and a hit pays the entry load on top
// of the probe; BenchmarkTableExtendSelWarm measures both cases.
const kidSlots = 3

// child is one inline child slot: the path (from, head(p).From) :: p has
// id id. A zero id marks an unused slot; slots fill in order and are
// never cleared.
type child struct {
	from int32
	id   PathID
}

// entry is one interned non-empty path: the head arc (from, to) prepended
// to the suffix parent, so the arc sequence of id p is head(p),
// head(parent(p)), … down to EmptyID. The head's to is not stored: it is
// the parent's from, or last when the parent is EmptyID. A hit reads from
// and kids, which lead the entry so that they share a cache line.
type entry struct {
	from   int32 // source node (the first node of the path)
	kids   [kidSlots]child
	parent PathID
	bloom  uint64 // membership summary over all nodes of the path
	last   int32  // destination node (the last node of the path)
	length int32  // number of arcs
}

// next returns the node after e's source: the head of e's suffix, or
// e's destination when e is a single arc.
func (t *Table) next(e *entry) int32 {
	if e.parent == EmptyID {
		return e.last
	}
	return t.at(e.parent).from
}

// rootKey is the index key of the one-arc path (i, j) :: [].
type rootKey struct{ i, j int32 }

// kidKey is the index key of a child of a non-empty parent that did not
// fit in the parent's slots: (i, head(parent).From) :: parent. The head
// of the arc is the parent's source, so it is not part of the key. Both
// keys are eight bytes, which the map hashes and compares as one word.
type kidKey struct {
	parent PathID
	i      int32
}

// Table is a hash-consing table for simple paths over nodes that fit in
// an int32. The zero value is not usable; construct with NewTable. All
// methods are safe for concurrent use: child slots and the indexes are
// written under the write lock only.
type Table struct {
	mu      sync.RWMutex
	entries []entry
	// roots holds the extensions of EmptyID, and more the children of
	// entries whose slots are full.
	roots map[rootKey]PathID
	more  map[kidKey]PathID
	// aliased records whether any interned node falls outside [0, 63];
	// while false, the bloom word is an exact membership set and the
	// parent-walk fallback of Contains is never needed.
	aliased bool
}

// NewTable returns an empty table containing only [] and ⊥.
func NewTable() *Table {
	return &Table{roots: make(map[rootKey]PathID), more: make(map[kidKey]PathID)}
}

// nodeBit is the bloom-word bit of node v. For the experiment scales
// (n ≤ 64) distinct nodes map to distinct bits, making the summary exact;
// beyond that it degrades gracefully into a bloom filter.
func nodeBit(v int) uint64 { return 1 << (uint(v) & 63) }

// Size returns the number of distinct non-empty paths interned so far.
func (t *Table) Size() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.entries)
}

// at returns the entry of a non-empty id; callers hold at least the read
// lock and guarantee p ≥ 1.
func (t *Table) at(p PathID) *entry { return &t.entries[p-1] }

// Len returns the number of arcs of p (0 for ⊥ and [], mirroring
// Path.Len).
func (t *Table) Len(p PathID) int {
	if p <= EmptyID {
		return 0
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return int(t.at(p).length)
}

// Source returns the first node of p; ok is false for ⊥ and [].
func (t *Table) Source(p PathID) (int, bool) {
	if p <= EmptyID {
		return 0, false
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return int(t.at(p).from), true
}

// Destination returns the last node of p; ok is false for ⊥ and [].
func (t *Table) Destination(p PathID) (int, bool) {
	if p <= EmptyID {
		return 0, false
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return int(t.at(p).last), true
}

// Contains reports whether node v appears anywhere in p, mirroring
// Path.Contains: the bloom word rejects most non-members in O(1), and a
// positive answer is confirmed by the parent walk unless the summary is
// known to be exact.
func (t *Table) Contains(p PathID, v int) bool {
	if p <= EmptyID {
		return false
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.contains(p, v)
}

// contains is Contains with the read lock held.
func (t *Table) contains(p PathID, v int) bool {
	e := t.at(p)
	if e.bloom&nodeBit(v) == 0 {
		return false
	}
	if !t.aliased {
		// No node outside [0, 63] has ever been interned, so the summary
		// is exact for in-range v — the set bit is the node itself — and
		// an out-of-range v cannot be a member at all (its bit was set by
		// some in-range node).
		return uint(v) <= 63
	}
	if int(e.last) == v {
		return true
	}
	for {
		if int(e.from) == v {
			return true
		}
		if e.parent == EmptyID {
			return false
		}
		e = t.at(e.parent)
	}
}

// CanExtend reports whether prepending the arc (i, j) to p yields a
// simple path, mirroring Path.CanExtend. It never interns anything.
func (t *Table) CanExtend(p PathID, i, j int) bool {
	if p.IsInvalid() || i == j {
		return false
	}
	if p == EmptyID {
		return true
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	if int(t.at(p).from) != j {
		return false
	}
	return !t.contains(p, i)
}

// Extend returns the id of (i,j) :: p, or InvalidID if the extension
// would not be a simple contiguous path — exactly Path.Extend, O(1)
// amortised and allocation-free once the extension has been seen.
func (t *Table) Extend(p PathID, i, j int) PathID {
	if p.IsInvalid() || i == j {
		return InvalidID
	}
	t.mu.RLock()
	id, ok := t.lookup(p, i, j)
	t.mu.RUnlock()
	if ok {
		return id
	}
	// Validity of (p, i, j) is immutable — paths never change once
	// interned — so only the child search is repeated under the write
	// lock, in case another writer interned the path meanwhile.
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.find(p, i, j); ok {
		return id
	}
	e := entry{from: int32(i), parent: p, last: int32(j), length: 1, bloom: nodeBit(i) | nodeBit(j)}
	if p != EmptyID {
		pe := t.at(p)
		e.last = pe.last
		e.length = pe.length + 1
		e.bloom |= pe.bloom
	}
	if uint(i) > 63 || uint(j) > 63 {
		t.aliased = true
	}
	t.entries = append(t.entries, e)
	id = PathID(len(t.entries))
	if p == EmptyID {
		t.roots[rootKey{i: int32(i), j: int32(j)}] = id
		return id
	}
	kids := &t.at(p).kids
	for k := range kids {
		if kids[k].id == EmptyID {
			kids[k] = child{from: int32(i), id: id}
			return id
		}
	}
	t.more[kidKey{parent: p, i: int32(i)}] = id
	return id
}

// lookup answers Extend(p, i, j) for a valid p and i ≠ j under the read
// lock: ok is true with the interned id, or with InvalidID when the
// extension is provably not simple, and false when the path is valid but
// not interned yet. The child search runs before the loop check, so the
// steady state never pays the membership test.
func (t *Table) lookup(p PathID, i, j int) (PathID, bool) {
	if p != EmptyID && int(t.at(p).from) != j {
		return InvalidID, true
	}
	if id, ok := t.find(p, i, j); ok {
		return id, true
	}
	if p != EmptyID && t.contains(p, i) {
		return InvalidID, true
	}
	return InvalidID, false
}

// find returns the interned id of (i, j) :: p if there is one; callers
// hold at least the read lock and, for a non-empty p, have checked that
// j is p's source. A child of a non-empty parent sits in a slot unless
// all slots were taken when it was interned.
func (t *Table) find(p PathID, i, j int) (PathID, bool) {
	if p == EmptyID {
		id, ok := t.roots[rootKey{i: int32(i), j: int32(j)}]
		return id, ok
	}
	kids := &t.at(p).kids
	for k := range kids {
		switch c := kids[k]; {
		case c.id == EmptyID:
			return InvalidID, false // a free slot: no child went to the map
		case c.from == int32(i):
			return c.id, true
		}
	}
	id, ok := t.more[kidKey{parent: p, i: int32(i)}]
	return id, ok
}

// pendingID is an internal sentinel used by ExtendSel to mark cells whose
// extension was not found under the read lock; it never escapes.
const pendingID PathID = -2

// ExtendSel is the batched form of Extend used by the columnar σ kernels:
// it computes out[x] = Extend(src[x], i, j) for every selected column x —
// the ascending absolute indices in sel, or all of [j0, j1) when sel is
// nil — under a single read-lock acquisition. A convergence sweep extends
// whole columns by the same arc, so the batch turns one lock round-trip
// per cell into one per (edge, span), and a hit costs one entry load;
// only genuinely new paths fall back to the write path, and paths are
// immutable once interned, so the late re-probe inside Extend is safe.
func (t *Table) ExtendSel(src, out []PathID, sel []int32, j0, j1, i, j int) {
	if i == j {
		if sel == nil {
			for x := j0; x < j1; x++ {
				out[x] = InvalidID
			}
		} else {
			for _, x := range sel {
				out[x] = InvalidID
			}
		}
		return
	}
	miss := false
	t.mu.RLock()
	if sel == nil {
		for x := j0; x < j1; x++ {
			out[x] = t.extendLocked(src[x], i, j, &miss)
		}
	} else {
		for _, x := range sel {
			out[x] = t.extendLocked(src[x], i, j, &miss)
		}
	}
	t.mu.RUnlock()
	if !miss {
		return
	}
	if sel == nil {
		for x := j0; x < j1; x++ {
			if out[x] == pendingID {
				out[x] = t.Extend(src[x], i, j)
			}
		}
	} else {
		for _, x := range sel {
			if out[x] == pendingID {
				out[x] = t.Extend(src[x], i, j)
			}
		}
	}
}

// extendLocked resolves one extension under the read lock held by
// ExtendSel: a hit or a provable invalidity answers immediately; anything
// else is marked pending for the write path.
func (t *Table) extendLocked(p PathID, i, j int, miss *bool) PathID {
	if p.IsInvalid() {
		return InvalidID
	}
	if id, ok := t.lookup(p, i, j); ok {
		return id
	}
	*miss = true
	return pendingID
}

// Intern maps a reference Path to its id, interning every prefix along
// the way. It is the bridge from the []Arc representation: paths built
// arc-by-arc through Extend never need it.
func (t *Table) Intern(p Path) PathID {
	if p.IsInvalid() {
		return InvalidID
	}
	id := EmptyID
	arcs := p.arcs
	for k := len(arcs) - 1; k >= 0; k-- {
		id = t.Extend(id, arcs[k].From, arcs[k].To)
		if id.IsInvalid() {
			return InvalidID
		}
	}
	return id
}

// Path materialises the id back into the reference representation.
func (t *Table) Path(p PathID) Path {
	if p.IsInvalid() {
		return Invalid
	}
	if p == EmptyID {
		return Empty
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	arcs := make([]Arc, t.at(p).length)
	for k, id := 0, p; id != EmptyID; k, id = k+1, t.at(id).parent {
		e := t.at(id)
		arcs[k] = Arc{From: int(e.from), To: int(t.next(e))}
	}
	return Path{arcs: arcs}
}

// Nodes returns the nodes visited by p in order (nil for ⊥ and []),
// mirroring Path.Nodes.
func (t *Table) Nodes(p PathID) []int {
	if p <= EmptyID {
		return nil
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := int(t.at(p).length)
	out := make([]int, 0, n+1)
	for id := p; id != EmptyID; id = t.at(id).parent {
		out = append(out, int(t.at(id).from))
	}
	return append(out, int(t.at(p).last))
}

// Compare orders ids exactly as Path.Compare orders the paths they
// denote: ⊥ greatest, then by length, then lexicographically by arc
// sequence. Hash-consing makes a == b an O(1) early exit, and the walk
// stops at the first shared suffix, since equal suffixes share an id.
func (t *Table) Compare(a, b PathID) int {
	if a == b {
		return 0
	}
	switch {
	case a.IsInvalid():
		return 1
	case b.IsInvalid():
		return -1
	case a == EmptyID:
		return -1
	case b == EmptyID:
		return 1
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	ea, eb := t.at(a), t.at(b)
	if d := ea.length - eb.length; d != 0 {
		if d < 0 {
			return -1
		}
		return 1
	}
	// A head's to is the next head's from, so comparing froms down the
	// two chains compares the arcs; only the last arcs' to is last.
	for {
		if d := cmp.Compare(ea.from, eb.from); d != 0 {
			return d
		}
		if ea.parent == eb.parent { // shared suffix: equal from here on
			if ea.parent == EmptyID {
				return cmp.Compare(ea.last, eb.last)
			}
			return 0
		}
		ea, eb = t.at(ea.parent), t.at(eb.parent)
	}
}

// String renders the id like Path.String: ⊥, [], or "1->2->3".
func (t *Table) String(p PathID) string { return t.Path(p).String() }
