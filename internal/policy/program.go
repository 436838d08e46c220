package policy

import "math"

// A program is a policy compiled for the interned carrier: a flat op list
// run front to back, with every condition lowered to leaf tests that jump
// forward. Compiling once per edge takes the AST walk, the interface
// dispatch on every Policy and Condition node and the route copies of a
// recursive interpreter out of the per-cell path; what is left is one
// switch per op over a route held in registers.
type program []op

// opcode selects what an op does.
type opcode uint8

const (
	opReject   opcode = iota // yield ∞ and stop
	opPrepend                // pad the effective length by arg, saturating at 255
	opIncrPref               // raise LPref by arg, saturating on wrap-around
	opAddComm                // add community arg
	opDelComm                // remove community arg
	opPolicy                 // apply the external Policy in ext
	opIfComm                 // jump if Comms.Has(arg) == when
	opIfLPref                // jump if (LPref == arg) == when
	opIfPath                 // jump if the path contains node arg == when
	opIfCond                 // jump if the external Condition in ext holds == when
)

// op is one instruction. The jump ops continue at jump when their leaf
// test equals when, and fall through otherwise; jumps only go forward,
// and jump == len(program) ends the run. arg is the operand of the
// built-in ops and ext the Policy or Condition of the external ones.
type op struct {
	code opcode
	when bool
	jump int32
	arg  uint32
	ext  any
}

// compile lowers pol into a program with exactly the semantics of
// Policy.Apply on the reference carrier: same constructors, same
// saturation, same order of effects. Policy and Condition types defined
// outside this package compile to ops that round-trip the route through
// the reference carrier, so custom policies keep working.
func compile(pol Policy) program {
	var prog program
	prog.policy(pol)
	return prog
}

// policy appends the code of pol.
func (prog *program) policy(pol Policy) {
	switch p := pol.(type) {
	case rejectPolicy:
		*prog = append(*prog, op{code: opReject})
	case prependPolicy:
		*prog = append(*prog, op{code: opPrepend, arg: uint32(p.by)})
	case incrPrefPolicy:
		*prog = append(*prog, op{code: opIncrPref, arg: p.by})
	case addCommPolicy:
		*prog = append(*prog, op{code: opAddComm, arg: uint32(p.c)})
	case delCommPolicy:
		*prog = append(*prog, op{code: opDelComm, arg: uint32(p.c)})
	case composePolicy:
		prog.policy(p.p)
		prog.policy(p.q)
	case conditionPolicy:
		var skip []int
		prog.cond(p.c, false, &skip)
		prog.policy(p.p)
		prog.patch(skip)
	default:
		*prog = append(*prog, op{code: opPolicy, ext: pol})
	}
}

// cond emits code that jumps when cd evaluates to sense and falls through
// otherwise, appending the index of every jump it emits to fix so the
// caller can patch in the target once it is known. And and or
// short-circuit exactly as && and || do in Condition.Eval.
func (prog *program) cond(cd Condition, sense bool, fix *[]int) {
	leaf := func(o op) {
		o.when = sense
		*fix = append(*fix, len(*prog))
		*prog = append(*prog, o)
	}
	switch x := cd.(type) {
	case notCond:
		prog.cond(x.c, !sense, fix)
	case andCond:
		if !sense { // either side false ends the conjunction false
			prog.cond(x.l, false, fix)
			prog.cond(x.r, false, fix)
			return
		}
		var skip []int
		prog.cond(x.l, false, &skip)
		prog.cond(x.r, true, fix)
		prog.patch(skip)
	case orCond:
		if sense { // either side true ends the disjunction true
			prog.cond(x.l, true, fix)
			prog.cond(x.r, true, fix)
			return
		}
		var skip []int
		prog.cond(x.l, true, &skip)
		prog.cond(x.r, false, fix)
		prog.patch(skip)
	case inCommCond:
		leaf(op{code: opIfComm, arg: uint32(x.c)})
	case lprefEqCond:
		leaf(op{code: opIfLPref, arg: x.v})
	case inPathCond:
		if uint64(x.node) > math.MaxUint32 { // not an operand; test it on the reference carrier
			leaf(op{code: opIfCond, ext: cd})
			return
		}
		leaf(op{code: opIfPath, arg: uint32(x.node)})
	default:
		leaf(op{code: opIfCond, ext: cd})
	}
}

// patch points every jump in fix at the next op to be emitted.
func (prog *program) patch(fix []int) {
	for _, k := range fix {
		(*prog)[k].jump = int32(len(*prog))
	}
}

// run applies the program to a valid route. InPath tests are answered by
// the table's membership summary.
func (prog program) run(t *Interned, r IRoute) IRoute {
	for pc := 0; pc < len(prog); {
		o := &prog[pc]
		pc++
		var hit bool
		switch o.code {
		case opReject:
			return InvalidIRoute
		case opPrepend:
			pad := uint32(r.Pad) + o.arg
			if pad > 255 {
				pad = 255
			}
			r.Pad = uint8(pad)
			continue
		case opIncrPref:
			lp := r.LPref + o.arg
			if lp < r.LPref { // saturate on wrap-around
				lp = ^uint32(0)
			}
			r.LPref = lp
			continue
		case opAddComm:
			r.Comms = r.Comms.Add(Community(o.arg))
			continue
		case opDelComm:
			r.Comms = r.Comms.Remove(Community(o.arg))
			continue
		case opPolicy:
			if r = t.FromRoute(o.ext.(Policy).Apply(t.ToRoute(r))); r.invalid {
				return InvalidIRoute
			}
			continue
		case opIfComm:
			hit = r.Comms.Has(Community(o.arg))
		case opIfLPref:
			hit = r.LPref == o.arg
		case opIfPath:
			hit = t.Tab.Contains(r.ID, int(o.arg))
		case opIfCond:
			hit = o.ext.(Condition).Eval(t.ToRoute(r))
		}
		if hit == o.when {
			pc = int(o.jump)
		}
	}
	return r
}
