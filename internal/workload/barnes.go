package workload

import (
	"fmt"

	"repro/internal/coherence"
	"repro/internal/cpu"
)

// Barnes is the Barnes-Hut N-body kernel: a concurrent quadtree built with
// per-node ticket locks (optimistic lock-free descent, locking only at the
// modification point, as in SPLASH-2), a parallel upward aggregation pass,
// and a read-heavy force phase traversing the widely shared tree. The
// rebuild each step invalidates tree lines shared by every core, which is
// why barnes shows one of the highest broadcast fractions in Fig 5.
func Barnes(cores int, seed int64, scale int) Spec {
	const (
		coordBits = 20
		steps     = 2
	)
	perCore := 4 * scale
	n := perCore * cores
	if n > 4096 {
		n = 4096 // low-12-bit identity keeps coordinates collision-free
	}

	m := NewMem(64)
	bx := m.AllocWords(n)
	by := m.AllocWords(n)
	bmass := m.AllocWords(n)
	bacc := m.AllocWords(n)

	nodeCap := 64*n + 1024
	// Per-step tree regions; fresh regions start zeroed (empty nodes).
	kindA := make([]uint64, steps)
	leafA := make([]uint64, steps)
	childA := make([]uint64, steps)
	massA := make([]uint64, steps)
	sxA := make([]uint64, steps)
	syA := make([]uint64, steps)
	lockNA := make([]uint64, steps)
	lockSA := make([]uint64, steps)
	allocA := make([]uint64, steps)
	for s := 0; s < steps; s++ {
		kindA[s] = m.AllocWords(nodeCap)
		leafA[s] = m.AllocWords(nodeCap)
		childA[s] = m.AllocWords(nodeCap * 4)
		massA[s] = m.AllocWords(nodeCap)
		sxA[s] = m.AllocWords(nodeCap)
		syA[s] = m.AllocWords(nodeCap)
		lockNA[s] = m.AllocWords(nodeCap)
		lockSA[s] = m.AllocWords(nodeCap)
		allocA[s] = m.Alloc(8)
	}
	bar := NewBarrier(m, cores)

	r := rng(seed, 3)
	initX := make([]uint64, n)
	initY := make([]uint64, n)
	initM := make([]uint64, n)
	for i := 0; i < n; i++ {
		initX[i] = uint64(r.Intn(1<<coordBits))&^0xfff | uint64(i&0xfff)
		initY[i] = uint64(r.Intn(1<<coordBits))&^0xfff | uint64(i&0xfff)
		initM[i] = uint64(1 + i%3)
	}

	const (
		kindEmpty = 0
		kindLeaf  = 1
		kindInner = 2
	)

	prog := func(p *cpu.Proc) {
		me := p.ID()
		st := bar.State()

		for s := 0; s < steps; s++ {
			kA, lA, cA := kindA[s], leafA[s], childA[s]
			mA, xA, yA := massA[s], sxA[s], syA[s]
			lnA, lsA, alA := lockNA[s], lockSA[s], allocA[s]

			kind := func(i uint64) uint64 { return kA + i*8 }
			leaf := func(i uint64) uint64 { return lA + i*8 }
			child := func(i uint64, q int) uint64 { return cA + (i*4+uint64(q))*8 }
			lock := func(i uint64) *Lock { return &Lock{next: lnA + i*8, serving: lsA + i*8} }

			if me == 0 {
				p.Store(alA, 1) // node 0 is the root
			}
			st.Wait(p)

			// Build: insert our bodies with optimistic descent.
			for b := me * perCore; b < (me+1)*perCore && b < n; b++ {
				x := p.Load(bx + uint64(b)*8)
				y := p.Load(by + uint64(b)*8)
				node := uint64(0)
				cx, cy := uint64(1<<(coordBits-1)), uint64(1<<(coordBits-1))
				half := uint64(1 << (coordBits - 1))
				for {
					k := p.Load(kind(node))
					if k == kindInner {
						q := quadrant(x, y, cx, cy)
						nxt := p.Load(child(node, q))
						cx, cy, half = childCenter(cx, cy, half, q)
						node = nxt - 1
						p.Compute(3)
						continue
					}
					// Empty or leaf: lock and revalidate.
					l := lock(node)
					t := l.Acquire(p)
					k = p.Load(kind(node))
					if k == kindInner {
						l.Release(p, t)
						continue
					}
					if k == kindEmpty {
						p.Store(leaf(node), uint64(b)+1)
						p.Store(kind(node), kindLeaf)
						l.Release(p, t)
						break
					}
					// Split a leaf: push the resident body and ours down
					// until they separate. The entry node's kind flips to
					// internal last, so lock-free readers never see a
					// half-built chain.
					ob := p.Load(leaf(node)) - 1
					ox := p.Load(bx + ob*8)
					oy := p.Load(by + ob*8)
					cur := node
					ccx, ccy, chalf := cx, cy, half
					type pendingInner struct{ idx uint64 }
					var chain []pendingInner
					for {
						base := p.FetchAdd(alA, 4)
						for q := 0; q < 4; q++ {
							p.Store(child(cur, q), base+uint64(q)+1)
						}
						chain = append(chain, pendingInner{cur})
						qo := quadrant(ox, oy, ccx, ccy)
						qn := quadrant(x, y, ccx, ccy)
						if qo != qn {
							co := base + uint64(qo)
							cn := base + uint64(qn)
							p.Store(leaf(co), ob+1)
							p.Store(kind(co), kindLeaf)
							p.Store(leaf(cn), uint64(b)+1)
							p.Store(kind(cn), kindLeaf)
							break
						}
						next := base + uint64(qo)
						ccx, ccy, chalf = childCenter(ccx, ccy, chalf, qo)
						cur = next
						p.Compute(4)
					}
					for i := len(chain) - 1; i >= 0; i-- {
						p.Store(kind(chain[i].idx), kindInner)
					}
					l.Release(p, t)
					break
				}
			}
			st.Wait(p)

			// Upward pass: depth-3 subtrees are aggregated in parallel
			// (disjoint, so plain stores suffice); core 0 then folds the
			// top three levels.
			combo := 0
			for q1 := 0; q1 < 4; q1++ {
				for q2 := 0; q2 < 4; q2++ {
					for q3 := 0; q3 < 4; q3++ {
						if combo%cores == me {
							root3, ok := descendPath(p, kind, child, []int{q1, q2, q3})
							if ok {
								aggregate(p, kind, leaf, child, mA, xA, yA, bx, by, bmass, root3)
							}
						}
						combo++
					}
				}
			}
			st.Wait(p)
			if me == 0 {
				aggregateTop(p, kind, leaf, child, mA, xA, yA, bx, by, bmass, 0, 0, 3)
			}
			st.Wait(p)

			// Force phase: read-only traversal with an opening criterion.
			for b := me * perCore; b < (me+1)*perCore && b < n; b++ {
				x := p.Load(bx + uint64(b)*8)
				y := p.Load(by + uint64(b)*8)
				acc := uint64(0)
				type frame struct {
					node uint64
					half uint64
					cx   uint64
					cy   uint64
				}
				stack := []frame{{0, 1 << (coordBits - 1), 1 << (coordBits - 1), 1 << (coordBits - 1)}}
				for len(stack) > 0 {
					f := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					k := p.Load(kind(f.node))
					switch k {
					case kindEmpty:
					case kindLeaf:
						ob := p.Load(leaf(f.node)) - 1
						if ob != uint64(b) {
							ox := p.Load(bx + ob*8)
							oy := p.Load(by + ob*8)
							om := p.Load(bmass + ob*8)
							acc += om * 1000000 / (cheby(x, y, ox, oy) + 1)
							p.Compute(8)
						}
					case kindInner:
						nm := p.Load(mA + f.node*8)
						d := cheby(x, y, f.cx, f.cy)
						if 2*f.half < d || f.half <= 1<<(coordBits-8) {
							// Far enough (or tiny cell): use the aggregate.
							sx := p.Load(xA + f.node*8)
							sy := p.Load(yA + f.node*8)
							if nm > 0 {
								acc += nm * 1000000 / (cheby(x, y, sx/nm, sy/nm) + 1)
							}
							p.Compute(10)
						} else {
							for q := 0; q < 4; q++ {
								ch := p.Load(child(f.node, q))
								ncx, ncy, nh := childCenter(f.cx, f.cy, f.half, q)
								stack = append(stack, frame{ch - 1, nh, ncx, ncy})
							}
							p.Compute(4)
						}
					}
				}
				p.Store(bacc+uint64(b)*8, acc)
			}
			st.Wait(p)

			// Position update: keep the low-12-bit identity so rebuilt
			// trees never see coincident bodies.
			for b := me * perCore; b < (me+1)*perCore && b < n; b++ {
				x := p.Load(bx + uint64(b)*8)
				y := p.Load(by + uint64(b)*8)
				a := p.Load(bacc + uint64(b)*8)
				mask := uint64(1<<coordBits - 1)
				nx := ((x+a<<12)&mask)&^0xfff | uint64(b&0xfff)
				ny := ((y+a<<13)&mask)&^0xfff | uint64(b&0xfff)
				p.Store(bx+uint64(b)*8, nx)
				p.Store(by+uint64(b)*8, ny)
				p.Compute(6)
			}
			st.Wait(p)
		}
	}

	lastStep := steps - 1
	return Spec{
		Name: "barnes",
		Init: func(vs *coherence.ValueStore) {
			for i := 0; i < n; i++ {
				vs.Write(bx+uint64(i)*8, initX[i])
				vs.Write(by+uint64(i)*8, initY[i])
				vs.Write(bmass+uint64(i)*8, initM[i])
			}
		},
		Program: prog,
		Validate: func(vs *coherence.ValueStore) error {
			// Walk the final tree: it must contain every body exactly
			// once, and the root aggregate must equal the total mass.
			var count int
			var mass uint64
			seen := make(map[uint64]bool)
			var walk func(node uint64) error
			walk = func(node uint64) error {
				switch vs.Read(kindA[lastStep] + node*8) {
				case kindLeaf:
					b := vs.Read(leafA[lastStep]+node*8) - 1
					if seen[b] {
						return fmt.Errorf("barnes: body %d appears twice", b)
					}
					seen[b] = true
					count++
					mass += vs.Read(bmass + b*8)
				case kindInner:
					for q := 0; q < 4; q++ {
						ch := vs.Read(childA[lastStep] + (node*4+uint64(q))*8)
						if ch == 0 {
							return fmt.Errorf("barnes: internal node %d missing child %d", node, q)
						}
						if err := walk(ch - 1); err != nil {
							return err
						}
					}
				}
				return nil
			}
			if err := walk(0); err != nil {
				return err
			}
			if count != n {
				return fmt.Errorf("barnes: tree holds %d bodies, want %d", count, n)
			}
			var want uint64
			for i := 0; i < n; i++ {
				want += vs.Read(bmass + uint64(i)*8)
			}
			if got := vs.Read(massA[lastStep]); got != want {
				return fmt.Errorf("barnes: root mass %d, want %d", got, want)
			}
			return nil
		},
	}
}

func quadrant(x, y, cx, cy uint64) int {
	q := 0
	if x >= cx {
		q |= 1
	}
	if y >= cy {
		q |= 2
	}
	return q
}

func childCenter(cx, cy, half uint64, q int) (uint64, uint64, uint64) {
	nh := half / 2
	if nh == 0 {
		nh = 1
	}
	ncx, ncy := cx-nh, cy-nh
	if q&1 != 0 {
		ncx = cx + nh
	}
	if q&2 != 0 {
		ncy = cy + nh
	}
	return ncx, ncy, nh
}

func cheby(ax, ay, bx, by uint64) uint64 {
	dx := ax - bx
	if bx > ax {
		dx = bx - ax
	}
	dy := ay - by
	if by > ay {
		dy = by - ay
	}
	if dx > dy {
		return dx
	}
	return dy
}

// descendPath follows child pointers along quadrants, reporting whether an
// internal node exists at the end of the path.
func descendPath(p *cpu.Proc, kind func(uint64) uint64, child func(uint64, int) uint64, path []int) (uint64, bool) {
	node := uint64(0)
	for _, q := range path {
		if p.Load(kind(node)) != 2 {
			return 0, false
		}
		node = p.Load(child(node, q)) - 1
	}
	if p.Load(kind(node)) != 2 {
		return 0, false
	}
	return node, true
}

// aggregate computes subtree mass and coordinate sums bottom-up with a
// post-order DFS, storing them at internal nodes.
func aggregate(p *cpu.Proc, kind func(uint64) uint64, leaf func(uint64) uint64, child func(uint64, int) uint64,
	mA, xA, yA, bx, by, bmass, node uint64) (mass, sx, sy uint64) {
	switch p.Load(kind(node)) {
	case 1:
		b := p.Load(leaf(node)) - 1
		m := p.Load(bmass + b*8)
		x := p.Load(bx + b*8)
		y := p.Load(by + b*8)
		return m, x * m, y * m
	case 2:
		for q := 0; q < 4; q++ {
			ch := p.Load(child(node, q)) - 1
			cm, cx, cy := aggregate(p, kind, leaf, child, mA, xA, yA, bx, by, bmass, ch)
			mass += cm
			sx += cx
			sy += cy
		}
		p.Store(mA+node*8, mass)
		p.Store(xA+node*8, sx)
		p.Store(yA+node*8, sy)
		p.Compute(6)
	}
	return mass, sx, sy
}

// aggregateTop folds levels 0..depth-1 (whose deeper subtrees were already
// aggregated in parallel) by summing child aggregates.
func aggregateTop(p *cpu.Proc, kind func(uint64) uint64, leaf func(uint64) uint64, child func(uint64, int) uint64,
	mA, xA, yA, bx, by, bmass, node uint64, depth, maxDepth int) (mass, sx, sy uint64) {
	switch p.Load(kind(node)) {
	case 1:
		b := p.Load(leaf(node)) - 1
		m := p.Load(bmass + b*8)
		return m, p.Load(bx+b*8) * m, p.Load(by+b*8) * m
	case 2:
		if depth >= maxDepth {
			// Already aggregated by a subtree owner.
			return p.Load(mA + node*8), p.Load(xA + node*8), p.Load(yA + node*8)
		}
		for q := 0; q < 4; q++ {
			ch := p.Load(child(node, q)) - 1
			cm, cx, cy := aggregateTop(p, kind, leaf, child, mA, xA, yA, bx, by, bmass, ch, depth+1, maxDepth)
			mass += cm
			sx += cx
			sy += cy
		}
		p.Store(mA+node*8, mass)
		p.Store(xA+node*8, sx)
		p.Store(yA+node*8, sy)
		p.Compute(6)
	}
	return mass, sx, sy
}
