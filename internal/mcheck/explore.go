package mcheck

import (
	"bytes"
	"fmt"

	"repro/internal/obs"
)

// node flags.
const (
	fQuiescent byte = 1 << iota
	fWToS0          // line 0 mid W->S demotion
	fWToS1          // line 1 mid W->S demotion
)

type node struct {
	parent int32
	depth  int32
	act    action
	flags  byte
}

type edge struct{ from, to int32 }

// Explore exhaustively enumerates the reachable state space, checking
// safety invariants on every state and liveness over the full graph.
// It returns an error only when the search itself cannot finish
// (MaxStates exceeded); protocol problems are reported in
// Result.Violation.
//
// The BFS frontier holds each new state's canonical key, the string
// visited already owns, and a dequeued key is decoded into the
// Checker's scratch state; successors and canonicalization candidates
// come from the Checker's free list and go back to it. So at steady
// state the search allocates only per new state: its key, and its
// share of the growth of visited, nodes, edges and the frontier.
func (ck *Checker) Explore() (*Result, error) { return ck.explore(nil) }

// explore is Explore; a non-nil dequeued is called with every key the
// search takes off the frontier.
func (ck *Checker) explore(dequeued func(key string)) (*Result, error) {
	cfg := ck.cfg
	ck.scratch()
	cov := map[string]int{}
	res := &Result{Coverage: cov}

	init := newState(cfg)
	init.normalize()
	key := string(ck.canonical(init))
	visited := map[string]int32{key: 0}
	nodes := []node{{parent: -1}}
	var edges []edge

	type qent struct {
		idx int32
		key string
	}
	queue := []qent{{0, key}}
	setFlags(&nodes[0], init, cfg)

	fail := func(idx int32, act action, hasAct bool, v *Violation) (*Result, error) {
		v.acts = pathTo(nodes, idx)
		if hasAct {
			v.acts = append(v.acts, act)
		}
		v.Path = make([]string, len(v.acts))
		for i, a := range v.acts {
			v.Path[i] = a.String()
		}
		res.Violation = v
		finishResult(res, nodes, edges)
		return res, nil
	}

	cur := ck.free.Get() // the state being expanded, decoded from its key
	for len(queue) > 0 {
		q := queue[0]
		queue = queue[1:]
		if dequeued != nil {
			dequeued(q.key)
		}
		cur.decode(cfg, q.key)
		acts := ck.enumerate(cur)
		if v := ck.checkDeadlock(cur, acts); v != nil {
			return fail(q.idx, action{}, false, v)
		}

		// Partial-order reduction: a delivery that provably does
		// nothing but consume its message commutes with every other
		// transition — commit the first such delivery immediately.
		drop, dropSucc := ck.pureDrop(cur, acts)
		if dropSucc != nil {
			acts = append(acts[:0], drop)
		}

		for _, act := range acts {
			succ, v := dropSucc, (*Violation)(nil)
			if succ == nil {
				succ, v = ck.apply(cur, act, nil, cov, 0)
			}
			if v != nil {
				return fail(q.idx, act, true, v)
			}
			if v = ck.checkState(succ); v != nil {
				return fail(q.idx, act, true, v)
			}
			k := ck.canonical(succ)
			if to, ok := visited[string(k)]; ok {
				ck.free.Put(succ)
				edges = append(edges, edge{q.idx, to})
				continue
			}
			if len(nodes) >= cfg.MaxStates {
				return nil, fmt.Errorf("mcheck: state space exceeds MaxStates=%d", cfg.MaxStates)
			}
			to := int32(len(nodes))
			key := string(k)
			visited[key] = to
			nd := node{parent: q.idx, depth: nodes[q.idx].depth + 1, act: act}
			setFlags(&nd, succ, cfg) // the flags are symmetric: succ's equal its canonical form's
			ck.free.Put(succ)
			nodes = append(nodes, nd)
			edges = append(edges, edge{q.idx, to})
			queue = append(queue, qent{to, key})
		}
	}

	if v := ck.checkLiveness(nodes, edges, cfg); v != nil {
		v.Path = make([]string, len(v.acts))
		for i, a := range v.acts {
			v.Path[i] = a.String()
		}
		res.Violation = v
		finishResult(res, nodes, edges)
		return res, nil
	}
	finishResult(res, nodes, edges)
	return res, nil
}

func finishResult(res *Result, nodes []node, edges []edge) {
	res.States = len(nodes)
	res.Edges = len(edges)
	for i := range nodes {
		if int(nodes[i].depth) > res.MaxDepth {
			res.MaxDepth = int(nodes[i].depth)
		}
		if nodes[i].flags&fQuiescent != 0 {
			res.Quiescent++
		}
	}
}

func setFlags(nd *node, s *state, cfg Config) {
	if !workInFlight(s) {
		nd.flags |= fQuiescent
	}
	if s.dir[0].busy == bWToS {
		nd.flags |= fWToS0
	}
	if cfg.Lines > 1 && s.dir[1].busy == bWToS {
		nd.flags |= fWToS1
	}
}

func pathTo(nodes []node, idx int32) []action {
	var rev []action
	for idx > 0 {
		rev = append(rev, nodes[idx].act)
		idx = nodes[idx].parent
	}
	out := make([]action, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

// workInFlight reports whether anything in the system is mid-flight.
func workInFlight(s *state) bool {
	for _, ch := range s.chans {
		if len(ch) > 0 {
			return true
		}
	}
	if len(s.wq) > 0 {
		return true
	}
	for i := range s.l1 {
		if s.l1[i].pend || s.l1[i].vic {
			return true
		}
	}
	for i := range s.dir {
		if s.dir[i].busy != bNone || len(s.dir[i].deferred) > 0 {
			return true
		}
	}
	return false
}

// enumerate lists every enabled action in deterministic order. The
// result is the Checker's buffer, valid until the next call.
func (ck *Checker) enumerate(s *state) []action {
	cfg := ck.cfg
	n := cfg.L1s
	nodes := n + 2
	out := ck.acts[:0]
	// 1. wired deliveries
	for a := 0; a < nodes; a++ {
		for b := 0; b < nodes; b++ {
			if len(s.chans[a*nodes+b]) > 0 {
				out = append(out, action{kind: actDeliver, a: byte(a), b: byte(b)})
			}
		}
	}
	// 2. wireless serializations (the queue is canonically sorted)
	for _, w := range s.wq {
		out = append(out, action{kind: actAir, a: w.kind, b: w.sender, c: w.line, d: w.val})
	}
	// 3. fault injection: corrupt an unprivileged store mid-air
	if cfg.Fault {
		for _, w := range s.wq {
			if w.kind == wUpd && !jammedIn(s, int(w.line)) {
				out = append(out, action{kind: actCorrupt, b: w.sender, c: w.line, d: w.val})
			}
		}
	}
	// 4. tone commit
	for li := range s.dir {
		if s.dir[li].busy == bSToW && s.dir[li].tWaitTone && quietIn(s) {
			out = append(out, action{kind: actTone, c: byte(li)})
		}
	}
	// 5. core issues
	budget := s.ops > 0
	for c := 0; budget && c < n; c++ {
		if !coreIdle(s, cfg, c) {
			continue
		}
		for li := 0; li < cfg.Lines; li++ {
			if s.dir[li].busy != bNone {
				continue // don't hammer a mid-transaction line with fresh issues
			}
			L := s.l1[c*cfg.Lines+li]
			roomy := len(s.chans[chIdx(cfg, c, n)]) < cfg.Reorder
			if L.st != sI || roomy {
				out = append(out, action{kind: actIssue, a: opLoad, b: byte(c), c: byte(li)})
			}
			storeHits := L.st == sE || L.st == sM || L.st == sW
			if storeHits || roomy {
				for v := 0; v < cfg.Values; v++ {
					out = append(out, action{kind: actIssue, a: opStore, b: byte(c), c: byte(li), d: byte(v)})
				}
			}
		}
	}
	// 6. spontaneous L1 evictions (capacity pressure)
	for c := 0; budget && c < n; c++ {
		for li := 0; li < cfg.Lines; li++ {
			L := s.l1[c*cfg.Lines+li]
			if L.st == sI || L.nonEvict || L.pend || L.vic || s.dir[li].busy != bNone {
				continue
			}
			if len(s.chans[chIdx(cfg, c, n)]) < cfg.Reorder {
				out = append(out, action{kind: actEvictL1, b: byte(c), c: byte(li)})
			}
		}
	}
	// 7. directory evictions
	if cfg.DirEvict && budget {
		for li := range s.dir {
			d := &s.dir[li]
			if d.exists && d.busy == bNone {
				out = append(out, action{kind: actEvictDir, c: byte(li)})
			}
		}
	}
	ck.acts = out
	return out
}

func jammedIn(s *state, li int) bool {
	switch s.dir[li].busy {
	case bSToW, bWAddSharer, bWToS:
		return true
	}
	return false
}

func quietIn(s *state) bool {
	for i := range s.l1 {
		if s.l1[i].pTone {
			return false
		}
	}
	return true
}

func coreIdle(s *state, cfg Config, c int) bool {
	for li := 0; li < cfg.Lines; li++ {
		if s.l1[c*cfg.Lines+li].pend {
			return false
		}
	}
	for _, w := range s.wq {
		if w.kind == wUpd && w.sender == byte(c) {
			return false
		}
	}
	return true
}

// checkDeadlock: when work is in flight, some non-issue transition
// must be enabled (fault injection is not credited with progress).
func (ck *Checker) checkDeadlock(s *state, acts []action) *Violation {
	if !workInFlight(s) {
		return nil
	}
	for _, a := range acts {
		switch a.kind {
		case actDeliver, actAir, actTone:
			return nil
		}
	}
	return &Violation{Kind: "deadlock", Msg: "work in flight but no delivery, wireless serialization, or tone commit is enabled"}
}

// pureDrop looks for a delivery whose successor equals the parent
// minus the delivered message: such a delivery commutes with every
// other enabled transition and strictly decreases the message
// measure, so committing it first preserves all reachable states and
// all violations. It returns the first such delivery and its
// successor, or a nil successor when there is none.
func (ck *Checker) pureDrop(s *state, acts []action) (action, *state) {
	cfg := ck.cfg
	minus := ck.free.Get()
	defer ck.free.Put(minus)
	for _, act := range acts {
		if act.kind != actDeliver {
			continue
		}
		succ, v := ck.apply(s, act, nil, nil, 0)
		if v != nil {
			ck.free.Put(succ)
			return action{}, nil // let the main loop rediscover and report it
		}
		s.copyInto(minus)
		ch := &minus.chans[chIdx(cfg, int(act.a), int(act.b))]
		*ch = (*ch)[:copy(*ch, (*ch)[1:])]
		minus.normalize()
		ck.key = succ.encode(ck.key[:0])
		ck.alt = minus.encode(ck.alt[:0])
		if bytes.Equal(ck.key, ck.alt) {
			return act, succ
		}
		ck.free.Put(succ)
	}
	return action{}, nil
}

// copyOf is one copy of a line's data that checkState compares: an
// L1's line or victim buffer, the LLC's copy or memory's.
type copyOf struct {
	core     int8 // L1 id, or atLLC / atMemory
	st       byte // the L1 line's state
	victim   bool
	val, ver byte
}

const (
	atLLC    int8 = -1
	atMemory int8 = -2
)

// where names the copy in a violation message.
func (c copyOf) where() string {
	switch {
	case c.core == atLLC:
		return "LLC"
	case c.core == atMemory:
		return "memory"
	case c.victim:
		return fmt.Sprintf("core %d victim", c.core)
	}
	return fmt.Sprintf("core %d (%s)", c.core, l1Names[c.st])
}

// checkState enforces the per-state safety invariants: SWMR and
// symbolic-value integrity (plus cache/directory agreement when the
// state is quiescent).
func (ck *Checker) checkState(s *state) *Violation {
	cfg := ck.cfg
	for li := 0; li < cfg.Lines; li++ {
		owners, valid := 0, 0
		for c := 0; c < cfg.L1s; c++ {
			switch s.l1[c*cfg.Lines+li].st {
			case sE, sM:
				owners++
				valid++
			case sS, sW:
				valid++
			}
		}
		if owners > 1 {
			return &Violation{Kind: "swmr", Msg: fmt.Sprintf("line %d has %d wired owners", li, owners)}
		}
		if owners == 1 && valid > 1 {
			return &Violation{Kind: "swmr", Msg: fmt.Sprintf("line %d has a wired owner plus %d other valid copies", li, valid-1)}
		}
		// Same version, same value — across caches, victims, LLC, memory.
		var buf [2*4 + 2]copyOf // every L1 line and victim, the LLC, memory
		copies := buf[:0]
		for c := 0; c < cfg.L1s; c++ {
			L := s.l1[c*cfg.Lines+li]
			if L.st != sI {
				copies = append(copies, copyOf{int8(c), L.st, false, L.val, L.ver})
			}
			if L.vic {
				copies = append(copies, copyOf{int8(c), L.st, true, L.vicVal, L.vicVer})
			}
		}
		d := s.dir[li]
		if d.exists && d.hasData {
			copies = append(copies, copyOf{core: atLLC, val: d.val, ver: d.ver})
		}
		copies = append(copies, copyOf{core: atMemory, val: s.memVal[li], ver: s.memVer[li]})
		for i := range copies {
			for j := i + 1; j < len(copies); j++ {
				if copies[i].ver == copies[j].ver && copies[i].val != copies[j].val {
					return &Violation{Kind: "integrity", Msg: fmt.Sprintf(
						"line %d version %d has two values: %s=%d vs %s=%d",
						li, copies[i].ver, copies[i].where(), copies[i].val, copies[j].where(), copies[j].val)}
				}
			}
			if copies[i].ver == s.curVer[li] && copies[i].val != s.curVal[li] {
				return &Violation{Kind: "integrity", Msg: fmt.Sprintf(
					"line %d: %s carries version %d with value %d, serialized value is %d",
					li, copies[i].where(), copies[i].ver, copies[i].val, s.curVal[li])}
			}
		}
	}
	if !workInFlight(s) {
		if v := ck.checkQuiescent(s); v != nil {
			return v
		}
	}
	return nil
}

// checkQuiescent enforces cache/directory/LLC agreement once nothing
// is in flight: every valid copy is current, and the directory's
// sharer tracking matches the caches exactly.
func (ck *Checker) checkQuiescent(s *state) *Violation {
	cfg := ck.cfg
	for li := 0; li < cfg.Lines; li++ {
		d := s.dir[li]
		for c := 0; c < cfg.L1s; c++ {
			L := s.l1[c*cfg.Lines+li]
			if L.st != sI && L.ver != s.curVer[li] {
				return &Violation{Kind: "integrity", Msg: fmt.Sprintf(
					"quiescent: core %d holds line %d (%s) at version %d, current is %d",
					c, li, l1Names[L.st], L.ver, s.curVer[li])}
			}
			inSharers := d.exists && d.sharers&(1<<c) != 0
			isOwner := d.exists && d.owner == byte(c)
			switch L.st {
			case sS:
				if !d.exists || d.st != dS || !inSharers {
					return &Violation{Kind: "swmr", Msg: fmt.Sprintf(
						"quiescent: core %d holds line %d in S but the directory does not track it (%s)",
						c, li, dirFSMName(&d))}
				}
			case sE, sM:
				if !d.exists || d.st != dO || !isOwner {
					return &Violation{Kind: "swmr", Msg: fmt.Sprintf(
						"quiescent: core %d owns line %d (%s) but the directory says %s",
						c, li, l1Names[L.st], dirFSMName(&d))}
				}
			case sW:
				if !d.exists || d.st != dW {
					return &Violation{Kind: "swmr", Msg: fmt.Sprintf(
						"quiescent: core %d holds line %d in W but the directory says %s",
						c, li, dirFSMName(&d))}
				}
			case sI:
				if inSharers {
					return &Violation{Kind: "swmr", Msg: fmt.Sprintf(
						"quiescent: directory tracks core %d as a sharer of line %d it does not hold", c, li)}
				}
				if isOwner {
					return &Violation{Kind: "swmr", Msg: fmt.Sprintf(
						"quiescent: directory tracks core %d as the owner of line %d it does not hold", c, li)}
				}
			}
		}
		if d.exists {
			switch d.st {
			case dS:
				if d.sharers == 0 {
					return &Violation{Kind: "swmr", Msg: fmt.Sprintf("quiescent: line %d is DS with no sharers", li)}
				}
			case dO:
				if d.owner == noNode {
					return &Violation{Kind: "swmr", Msg: fmt.Sprintf("quiescent: line %d is DO with no owner", li)}
				}
			case dW:
				wCores := 0
				for c := 0; c < cfg.L1s; c++ {
					if s.l1[c*cfg.Lines+li].st == sW {
						wCores++
					}
				}
				if int(d.wcount) != wCores {
					return &Violation{Kind: "swmr", Msg: fmt.Sprintf(
						"quiescent: line %d wireless sharer count %d but %d cores hold W", li, d.wcount, wCores)}
				}
			}
			if d.hasData && d.st != dO && d.ver != s.curVer[li] {
				return &Violation{Kind: "integrity", Msg: fmt.Sprintf(
					"quiescent: LLC holds line %d at version %d, current is %d (%s)",
					li, d.ver, s.curVer[li], dirFSMName(&d))}
			}
		}
	}
	return nil
}

// checkLiveness verifies EF-quiescence (every state can still drain)
// and W-demotion completion (every busy:w-to-s state can leave it)
// by backward reachability over the explored graph.
func (ck *Checker) checkLiveness(nodes []node, edges []edge, cfg Config) *Violation {
	// The reverse graph in compressed rows: the predecessors of v are
	// pred[start[v]:start[v+1]].
	start := make([]int32, len(nodes)+1)
	for _, e := range edges {
		start[e.to+1]++
	}
	for v := range nodes {
		start[v+1] += start[v]
	}
	pred := make([]int32, len(edges))
	fill := append([]int32(nil), start[:len(nodes)]...)
	for _, e := range edges {
		pred[fill[e.to]] = e.from
		fill[e.to]++
	}
	reach := func(target func(n *node) bool) []bool {
		ok := make([]bool, len(nodes))
		var stack []int32
		for i := range nodes {
			if target(&nodes[i]) {
				ok[i] = true
				stack = append(stack, int32(i))
			}
		}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, u := range pred[start[v]:start[v+1]] {
				if !ok[u] {
					ok[u] = true
					stack = append(stack, u)
				}
			}
		}
		return ok
	}
	quiesce := reach(func(n *node) bool { return n.flags&fQuiescent != 0 })
	for i := range nodes {
		if !quiesce[i] {
			return &Violation{Kind: "liveness",
				Msg:  "state cannot reach quiescence (in-flight work can never fully drain)",
				acts: pathTo(nodes, int32(i))}
		}
	}
	wtosBits := []byte{fWToS0}
	if cfg.Lines > 1 {
		wtosBits = append(wtosBits, fWToS1)
	}
	for li, bit := range wtosBits {
		escape := reach(func(n *node) bool { return n.flags&bit == 0 })
		for i := range nodes {
			if !escape[i] {
				return &Violation{Kind: "liveness",
					Msg:  fmt.Sprintf("busy:w-to-s on line %d can never complete", li),
					acts: pathTo(nodes, int32(i))}
			}
		}
	}
	return nil
}

// Counterexample replays a violation's action path from the initial
// state and returns the obs event stream it generates. Node and core
// identities are in canonical (symmetry-reduced) coordinates — the
// same coordinates the violation's Path labels use.
func (ck *Checker) Counterexample(v *Violation) []obs.Event {
	if v == nil {
		return nil
	}
	ck.scratch()
	var events []obs.Event
	emit := func(e obs.Event) { events = append(events, e) }
	cur := newState(ck.cfg)
	cur.normalize()
	cur.decode(ck.cfg, string(ck.canonical(cur)))
	for i, act := range v.acts {
		succ, verr := ck.apply(cur, act, emit, nil, uint64(i+1))
		if verr != nil {
			break
		}
		cur.decode(ck.cfg, string(ck.canonical(succ)))
		ck.free.Put(succ)
	}
	return events
}
