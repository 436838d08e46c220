package policy

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/paths"
)

// FuzzParsePolicy throws arbitrary strings at the parser: it must never
// panic, and whatever parses must be an increasing policy when applied
// through an edge (the language-level safety property).
func FuzzParsePolicy(f *testing.F) {
	f.Add("lp+=1")
	f.Add("addc(3); if (comm(3) & !path(2)) { lp+=10 } else { reject }")
	f.Add("if ((lp==0 | comm(1)) & !(path(3))) { delc(2) }")
	f.Add("reject;;")
	f.Add("if (comm(")
	f.Fuzz(func(t *testing.T, src string) {
		pol, err := ParsePolicy(src)
		if err != nil {
			return
		}
		alg := Algebra{}
		e := alg.Edge(3, 1, pol)
		rng := rand.New(rand.NewSource(int64(len(src))))
		for k := 0; k < 16; k++ {
			r := RandomRoute(rng, 4)
			fr := e.Apply(r)
			if alg.Equal(r, alg.Invalid()) {
				if !alg.Equal(fr, alg.Invalid()) {
					t.Fatalf("parsed policy %q resurrected ∞", src)
				}
				continue
			}
			if !core.Leq[Route](alg, r, fr) {
				t.Fatalf("parsed policy %q is not increasing on %s → %s", src, r, fr)
			}
		}
	})
}

// FuzzColumnarPolicy is the packed-cell differential: for any policy the
// parser accepts, (a) EncodeCol∘DecodeCol must be the identity up to
// Equal on random interned routes, and (b) the compiled columnar kernel
// folded over a random column must produce exactly the cells of the
// interface path — dst[x] = Choice(incumbent[x], edge.Apply(src[x])) —
// including tie-breaks, invalid sources and looping extensions. The
// kernel and the interned edge run the same compiled program, so (c)
// checks the fold against the reference carrier as well, whose AST
// interpreter shares no code with it.
func FuzzColumnarPolicy(f *testing.F) {
	f.Add("lp+=1", int64(1))
	f.Add("addc(3); if (comm(3) & !path(2)) { lp+=10 } else { reject }", int64(2))
	f.Add("prepend(2); delc(1)", int64(3))
	f.Add("if (lp==0) { reject }", int64(4))
	f.Add("if (comm(1)) { if (path(3) | lp==2) { lp+=1 } else { addc(2); reject } } else { if (!comm(2)) { prepend(1) } }", int64(5))
	f.Add("if (path(0) & (path(4) | !comm(5))) { reject }; addc(1); if (!(path(3) & comm(2))) { lp+=3 } else { delc(1) }", int64(6))
	f.Add("if (path(7)) { addc(6) } else { if (path(2)) { reject } }; if (comm(6) | lp==1) { prepend(3) }", int64(7))
	f.Fuzz(func(t *testing.T, src string, seed int64) {
		pol, err := ParsePolicy(src)
		if err != nil {
			return
		}
		alg := NewInterned(nil)
		// n cells over 8 nodes: about one source in eight starts at node
		// 2 and avoids node 1, so the edge (1, 2) extends it and the
		// policy runs; n = 64 puts several such cells in every column.
		const nodes, n = 8, 64
		rng := rand.New(rand.NewSource(seed))
		col := make([]IRoute, n)
		incumbent := make([]IRoute, n)
		for x := range col {
			col[x] = alg.FromRoute(RandomRoute(rng, nodes))
			incumbent[x] = alg.FromRoute(RandomRoute(rng, nodes))
		}

		// (a) Round trip through the packed lanes.
		enc := core.Col{ID: make([]paths.PathID, n), M: make([]uint64, 2*n)}
		alg.EncodeCol(col, enc)
		dec := make([]IRoute, n)
		alg.DecodeCol(enc, dec)
		for x := range col {
			if !alg.Equal(col[x], dec[x]) {
				t.Fatalf("policy %q: cell %d does not round-trip: %s → %s",
					src, x, alg.Format(col[x]), alg.Format(dec[x]))
			}
		}

		// (b) Kernel vs interface fold for the edge (1, 2).
		e := alg.Edge(1, 2, pol)
		kn := alg.CompileEdge(e)
		if kn == nil {
			t.Fatalf("policy %q did not compile to a columnar kernel", src)
		}
		dst := core.Col{ID: make([]paths.PathID, n), M: make([]uint64, 2*n)}
		alg.EncodeCol(incumbent, dst)
		var scratch core.ColScratch
		kn(dst, enc, nil, 0, n, &scratch)
		got := make([]IRoute, n)
		alg.DecodeCol(dst, got)
		for x := range col {
			want := alg.Choice(incumbent[x], e.Apply(col[x]))
			if !alg.Equal(got[x], want) {
				t.Fatalf("policy %q: kernel fold diverges at %d: got %s, interface %s (src %s ⊕ incumbent %s)",
					src, x, alg.Format(got[x]), alg.Format(want), alg.Format(col[x]), alg.Format(incumbent[x]))
			}
		}

		// (c) Kernel vs the reference carrier.
		ref := Algebra{}
		re := ref.Edge(1, 2, pol)
		for x := range col {
			want := ref.Choice(alg.ToRoute(incumbent[x]), re.Apply(alg.ToRoute(col[x])))
			if g := alg.ToRoute(got[x]); !ref.Equal(g, want) {
				t.Fatalf("policy %q: kernel fold diverges from the reference carrier at %d: got %s, reference %s",
					src, x, g, want)
			}
		}
	})
}
