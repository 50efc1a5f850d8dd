package maxflow

// This file implements the practical Goldberg–Tarjan configuration:
// highest-label vertex selection over height-indexed buckets, periodic
// global relabeling by backward BFS from the sink, and the gap
// heuristic (when a height level below n empties, everything stranded
// above it is provably cut off from the sink and jumps straight to
// n+1). Together with the CSR arc pool these are the heuristics that
// take push-relabel from its textbook O(V³) behavior to the fastest
// known practical max-flow family; the passive-classification networks
// of Theorem 4 — long chain gadgets behind ∞-capacity reachability
// edges — lean on the gap heuristic especially hard, because once the
// cut saturates, the excess trapped behind it would otherwise climb
// past n one relabel at a time.

// hlRelabelWorkConst is the constant charged to the global-relabel
// work counter per relabel operation, on top of the scanned degree;
// the counter approximates wasted label drift, and a backward BFS
// costs O(n + m), so exceeding the work limit = 24n + 2m amortizes
// each global rebuild against several times its own cost (hi_pr-style
// accounting, with the trigger backed off ~8× from hi_pr's classic
// 6n + m/2 because the gap heuristic — which hi_pr's trigger predates
// leaning on this heavily — already absorbs the stranded-excess climbs
// that frequent rebuilds used to paper over; measured on the passive
// benchmark family, end-to-end time improves steadily as the trigger
// is backed off, flattening out around the 8× setting and turning
// back up past ~16×).
const (
	hlRelabelWorkConst = 12
	hlWorkScaleN       = 48
	hlWorkScaleM       = 4
)

// PushRelabelHL computes a maximum flow with highest-label
// push-relabel and periodic global relabeling, drawing its Workspace
// from a process-wide sync.Pool, so steady-state solving allocates no
// scratch. Callers that want the per-solve Stats hold their own
// Workspace and call SolveWith. The network is consumed; Clone first
// to keep the original, or Reset to solve again.
func PushRelabelHL(g *Network) Result {
	ws := hlPool.Get().(*Workspace)
	r := SolveWith(ws, g)
	hlPool.Put(ws)
	return r
}

// SolveWith computes a maximum flow of g with the highest-label
// engine, using ws for every piece of solver scratch. Re-solving
// same-sized networks with one workspace performs no allocations.
// ws.Stats is overwritten with this solve's operation counts.
func SolveWith(ws *Workspace, g *Network) Result {
	g.prepare()
	n := g.n
	ws.ensure(n)
	ws.Stats = WorkspaceStats{}
	height, excess, cur := ws.height, ws.excess, ws.cur
	bucket, next, count := ws.bucket, ws.next, ws.count
	lnext, lprev, lhead := ws.lnext, ws.lprev, ws.lhead
	arcStart, arcTo, arcRev, arcCap := g.arcStart, g.arcTo, g.arcRev, g.arcCap
	src, snk := int32(g.source), int32(g.sink)

	for i := 0; i < n; i++ {
		excess[i] = 0
	}
	// Initial preflow: saturate every arc out of the source.
	for a := arcStart[src]; a < arcStart[src+1]; a++ {
		c := arcCap[a]
		if c <= 0 {
			continue
		}
		arcCap[a] = 0
		arcCap[arcRev[a]] += c
		excess[arcTo[a]] += c
		excess[src] -= c
	}

	// Exact initial distances; also builds the buckets.
	highest := hlGlobalRelabel(g, ws)
	work := 0
	workLimit := hlWorkScaleN*n + hlWorkScaleM*len(arcTo)
	maxH := int32(2 * n)

	for highest >= 0 {
		u := bucket[highest]
		if u < 0 {
			highest--
			continue
		}
		bucket[highest] = next[u]
		h := height[u]
		if int(h) != highest {
			// The entry went stale when a gap lift raised u while it
			// was parked here; move it to its true bucket.
			next[u] = bucket[h]
			bucket[h] = u
			if int(h) > highest {
				highest = int(h)
			}
			continue
		}
		end := arcStart[u+1]
		for excess[u] > 0 {
			if cur[u] == end {
				// Out of admissible arcs: relabel to one above the
				// lowest residual neighbor.
				minH := maxH
				for a := arcStart[u]; a < end; a++ {
					if arcCap[a] > 0 && height[arcTo[a]] < minH {
						minH = height[arcTo[a]]
					}
				}
				if minH == maxH {
					// A vertex with positive excess received a push, so
					// its reverse arc has positive residual capacity;
					// unreachable on a consistent network.
					panic("maxflow: relabel found no residual arc")
				}
				ws.Stats.Relabels++
				work += int(end-arcStart[u]) + hlRelabelWorkConst
				oldH := h
				height[u] = minH + 1
				cur[u] = arcStart[u]
				h = height[u]
				count[oldH]--
				count[h]++
				// Move u to its new layer list.
				if lprev[u] >= 0 {
					lnext[lprev[u]] = lnext[u]
				} else {
					lhead[oldH] = lnext[u]
				}
				if lnext[u] >= 0 {
					lprev[lnext[u]] = lprev[u]
				}
				lprev[u] = -1
				lnext[u] = lhead[h]
				if lhead[h] >= 0 {
					lprev[lhead[h]] = u
				}
				lhead[h] = u
				if int(h) < n && h > ws.dMax {
					ws.dMax = h
				}
				if count[oldH] == 0 && int(oldH) < n {
					// Gap: no vertex is left at oldH, so nothing above
					// it can step down to the sink any more. The common
					// case — a lone chain vertex climbing through its
					// own levels — strands only u itself, which jumps
					// straight to n+1 in O(1) and keeps discharging.
					// A genuinely populated region is lifted by walking
					// its layer lists (O(lifted vertices)); active
					// vertices parked in buckets at pre-lift heights
					// relocate lazily when popped. ws.dMax (a stale
					// upper bound on the tallest sub-n height) keeps
					// the emptiness scan to a handful of levels.
					others := int(h) < n && count[h] > 1
					for gh := oldH + 1; !others && gh <= ws.dMax; gh++ {
						others = gh != h && count[gh] > 0
					}
					switch {
					case others:
						hlGap(g, ws, oldH)
						if int(height[u]) > highest {
							highest = int(height[u])
						}
						h = height[u]
						continue
					case int(h) < n:
						count[h]--
						// u leaves layer h for layer n+1.
						if lprev[u] >= 0 {
							lnext[lprev[u]] = lnext[u]
						} else {
							lhead[h] = lnext[u]
						}
						if lnext[u] >= 0 {
							lprev[lnext[u]] = lprev[u]
						}
						height[u] = int32(n + 1)
						h = height[u]
						count[h]++
						lprev[u] = -1
						lnext[u] = lhead[h]
						if lhead[h] >= 0 {
							lprev[lhead[h]] = u
						}
						lhead[h] = u
						ws.Stats.Gaps++
						continue
					default:
						continue
					}
				}
				if work >= workLimit {
					// Recompute exact labels; the rebuild re-buckets
					// every excess-carrying vertex, including u.
					work = 0
					highest = hlGlobalRelabel(g, ws)
					break
				}
				// u is now the highest active vertex; keep discharging.
				continue
			}
			a := cur[u]
			v := arcTo[a]
			if arcCap[a] > 0 && h == height[v]+1 {
				amt := excess[u]
				if arcCap[a] < amt {
					amt = arcCap[a]
				}
				arcCap[a] -= amt
				arcCap[arcRev[a]] += amt
				wasIdle := excess[v] == 0
				excess[u] -= amt
				excess[v] += amt
				ws.Stats.Pushes++
				if wasIdle && v != src && v != snk {
					hv := height[v]
					next[v] = bucket[hv]
					bucket[hv] = v
					// After a relabel u may sit above the old maximum,
					// so a fresh activation can too.
					if int(hv) > highest {
						highest = int(hv)
					}
				}
			} else {
				cur[u]++
			}
		}
	}
	return Result{Value: excess[snk], g: g}
}

// hlGlobalRelabel assigns every vertex its exact residual distance to
// the sink (backward BFS), then labels the sink-unreachable remainder
// n + its exact residual distance to the source — every vertex
// carrying excess has a residual path back to the source, so all
// active vertices are labeled by one of the two phases; anything left
// is inert and parks at 2n. Exact distances are valid labels and
// never lie below the current (valid) ones, so heights stay
// monotone. The buckets and current-arc cursors are rebuilt from
// scratch; the return value is the highest active height, -1 when no
// vertex is active.
func hlGlobalRelabel(g *Network, ws *Workspace) int {
	n := g.n
	src, snk := int32(g.source), int32(g.sink)
	height, queue := ws.height, ws.queue
	unreached := int32(2 * n)
	for i := 0; i < n; i++ {
		height[i] = unreached
	}
	height[snk] = 0
	height[src] = int32(n)

	// Phase 1: distance to the sink. Vertex w reaches u along the
	// residual arc rev(a) whenever that arc has capacity left.
	queue[0] = snk
	qh, qt := 0, 1
	for qh < qt {
		u := queue[qh]
		qh++
		du := height[u] + 1
		for a := g.arcStart[u]; a < g.arcStart[u+1]; a++ {
			w := g.arcTo[a]
			if height[w] == unreached && g.arcCap[g.arcRev[a]] > 0 {
				height[w] = du
				queue[qt] = w
				qt++
			}
		}
	}
	// Phase 2: n + distance to the source for the rest.
	queue[0] = src
	qh, qt = 0, 1
	for qh < qt {
		u := queue[qh]
		qh++
		du := height[u] + 1
		for a := g.arcStart[u]; a < g.arcStart[u+1]; a++ {
			w := g.arcTo[a]
			if height[w] == unreached && g.arcCap[g.arcRev[a]] > 0 {
				height[w] = du
				queue[qt] = w
				qt++
			}
		}
	}

	copy(ws.cur, g.arcStart[:n])
	count, lnext, lprev, lhead := ws.count, ws.lnext, ws.lprev, ws.lhead
	for h := range count {
		count[h] = 0
		lhead[h] = -1
	}
	ws.dMax = 0
	for v := int32(0); v < int32(n); v++ {
		if v == src || v == snk {
			continue
		}
		h := height[v]
		count[h]++
		lprev[v] = -1
		lnext[v] = lhead[h]
		if lhead[h] >= 0 {
			lprev[lhead[h]] = v
		}
		lhead[h] = v
		if h < int32(n) && h > ws.dMax {
			ws.dMax = h
		}
	}
	ws.Stats.GlobalRelabels++
	return hlRebucket(g, ws)
}

// hlRebucket rebuilds the height-indexed active buckets from the
// current heights and excesses, returning the highest active height
// (-1 when no vertex is active).
func hlRebucket(g *Network, ws *Workspace) int {
	src, snk := int32(g.source), int32(g.sink)
	bucket, next, height := ws.bucket, ws.next, ws.height
	for h := range bucket {
		bucket[h] = -1
	}
	highest := -1
	for v := int32(0); v < int32(g.n); v++ {
		if v == src || v == snk || ws.excess[v] <= 0 {
			continue
		}
		h := height[v]
		next[v] = bucket[h]
		bucket[h] = v
		if int(h) > highest {
			highest = int(h)
		}
	}
	return highest
}

// hlGap applies the gap heuristic: height level gapH (< n) just
// emptied, and since residual heights drop by at most one per arc, no
// vertex above the gap can reach the sink any more. Every vertex with
// gapH < height < n jumps to n+1 — the label it would eventually earn
// one relabel at a time — with its current-arc cursor reset, exactly
// as a relabel would. The layer lists make this O(lifted vertices +
// levels walked) rather than O(n). Active buckets are NOT rebuilt:
// lifted vertices keep their stale entries and relocate when popped.
func hlGap(g *Network, ws *Workspace, gapH int32) {
	n := int32(g.n)
	lift := n + 1
	height, count := ws.height, ws.count
	lnext, lprev, lhead := ws.lnext, ws.lprev, ws.lhead
	for gh := gapH + 1; gh <= ws.dMax; gh++ {
		v := lhead[gh]
		if v < 0 {
			continue
		}
		for v >= 0 {
			nxt := lnext[v]
			count[gh]--
			count[lift]++
			height[v] = lift
			ws.cur[v] = g.arcStart[v]
			lprev[v] = -1
			lnext[v] = lhead[lift]
			if lhead[lift] >= 0 {
				lprev[lhead[lift]] = v
			}
			lhead[lift] = v
			v = nxt
		}
		lhead[gh] = -1
	}
	// Levels above the gap are now empty, so the tallest sub-n height
	// is at most one below it.
	ws.dMax = gapH - 1
	ws.Stats.Gaps++
}
