package matching

import (
	"fmt"
	"math/bits"
)

// BitsetBipartite is a bipartite graph whose left-side adjacency is a
// packed bit matrix: row u holds one bit per right vertex, up to the
// row's own length. It is the dense-graph companion of Bipartite,
// built for the chain decomposition's dominance DAG, where the
// adjacency is produced as a bit matrix by the domgraph kernel and
// materializing O(n²) adjacency lists would dwarf every other cost.
type BitsetBipartite struct {
	nLeft, nRight int
	words         int // the longest a row may be: ceil(nRight/64)
	adj           []uint64
	off           []int // row u is adj[off[u]:off[u+1]]
	// dag marks the path-cover graph of a transitive, irreflexive
	// relation (BitsetFromDAG): left u and right u are one point, and
	// u → v implies row(v) ⊆ row(u).
	dag bool
}

// BitsetFromRows adopts packed adjacency rows without copying; the
// caller must not mutate them while the graph is in use. Row u is
// rows[off[u]:off[u+1]], at most ceil(nRight/64) words: bit v of it
// is the edge (u, v), and right vertices past the row's end have no
// edge to u. Rows may differ in length, and the matcher scans only
// each row's own words. Bits at positions >= nRight within a row's
// tail word must be zero.
func BitsetFromRows(nLeft, nRight int, rows []uint64, off []int) *BitsetBipartite {
	words := (nRight + 63) / 64
	if len(off) != nLeft+1 || off[0] != 0 || off[nLeft] != len(rows) {
		panic(fmt.Sprintf("matching: %d row offsets over %d words for %d rows", len(off), len(rows), nLeft))
	}
	for u := 0; u < nLeft; u++ {
		if l := off[u+1] - off[u]; l < 0 || l > words {
			panic(fmt.Sprintf("matching: row %d has %d words, want 0..%d", u, l, words))
		}
	}
	return &BitsetBipartite{nLeft: nLeft, nRight: nRight, words: words, adj: rows, off: off}
}

// BitsetFromDAG adopts rows like BitsetFromRows as the path-cover
// graph of a transitive, irreflexive relation on n points — the
// dominance DAG triangle of internal/domgraph, whose row u holds only
// the points below u in a linear extension. Left vertex u and right
// vertex u are the same point, and row u holds the points u relates
// to. Transitivity means u → v implies row(v) ⊆ row(u), and the
// matcher and the König pass use that to skip rows that provably hold
// nothing new (see MaxMatchingBitsetWarm). Matching, MatchingStats
// and covers are identical to BitsetFromRows over the same rows, bar
// RowScans, which can only fall. Rows that are not transitive make
// the results wrong, not just slow: only the caller can vouch for
// the relation.
func BitsetFromDAG(n int, rows []uint64, off []int) *BitsetBipartite {
	b := BitsetFromRows(n, n, rows, off)
	b.dag = true
	return b
}

// HasEdge reports whether the edge (u, v) is present.
func (b *BitsetBipartite) HasEdge(u, v int) bool {
	row := b.row(u)
	return v>>6 < len(row) && row[v>>6]>>(uint(v)&63)&1 == 1
}

// NumLeft returns the number of left vertices.
func (b *BitsetBipartite) NumLeft() int { return b.nLeft }

// NumRight returns the number of right vertices.
func (b *BitsetBipartite) NumRight() int { return b.nRight }

func (b *BitsetBipartite) row(u int) []uint64 {
	return b.adj[b.off[u]:b.off[u+1]]
}

// has reports whether bitset set holds u.
func has(set []uint64, u int) bool {
	return set[u>>6]>>(uint(u)&63)&1 == 1
}

// MatchingStats reports the work one matching computation performed.
// Warm-started calls use it to verify the width-bounded augmentation
// claim: a matching seeded from a valid chain cover of c chains needs
// exactly c − w further augmentations to reach the optimum cover of
// w chains, independent of the O(√V) cold-start phase bound.
type MatchingStats struct {
	// SeedSize is the number of matched pairs adopted from the seed.
	SeedSize int
	// Phases counts BFS layerings run, including the final empty one
	// that certifies maximality (so a perfect seed still costs 1).
	Phases int
	// Augmentations counts augmenting paths applied on top of the
	// seed; always the final size minus SeedSize.
	Augmentations int
	// Examined counts the candidate right vertices the augmenting
	// DFS tested. The per-layer masks let each right vertex be tested
	// at most once per phase, so it never exceeds Phases·NumRight.
	Examined int
	// RowScans counts the adjacency rows the BFS expanded and the
	// DFS scanned. On a BitsetFromDAG graph it is the only field the
	// closure rules change.
	RowScans int
}

// MaxMatchingBitsetWarm is Hopcroft–Karp over the packed adjacency,
// warm-started from a seed matching: seedL[u] is the right vertex
// initially matched to left vertex u, or -1, and a nil seedL means a
// cold start. Every seeded pair must be an edge of b and no right
// vertex may be seeded twice (the function panics otherwise — seeds
// come from trusted chain covers, not user input). Hopcroft–Karp
// converges to a maximum matching from any valid initial matching;
// since each phase augments at least once, the whole run costs at most
// (max − |seed|) + 1 BFS phases, and a cold start keeps
// MaxMatching's O(√V) phase bound.
//
// Both halves of a phase work a word at a time. The BFS keeps an unvisited-right bitset, so each
// row scan is one AND per word and every right vertex is expanded at
// most once. It also files every right vertex it reaches into a mask:
// the free-right mask, or the mask of layer k when its partner sits at
// distance k. The DFS from a left vertex at distance k scans its row
// ANDed with the free mask and layer k+1's mask, and clears each
// candidate it tests: the partner dead-ends, or the augmenting path
// takes the vertex. Each right vertex is tested at most once, so a
// phase costs O(V²/64) word operations plus O(V) bit tests, not O(E)
// bit visits. Every scan reads only the row's own words, so over a
// triangular adjacency (BitsetFromDAG's) the word count halves.
//
// On a BitsetFromDAG graph two closure rules skip rows without
// changing any layer, mask or augmenting path. The BFS does not expand
// a left vertex u whose right copy is already visited: some expanded a
// has a → u, so row(u) ⊆ row(a), all of it visited. And each BFS layer
// keeps the union of the rows of its left vertices whose DFS failed:
// a DFS from u returns false at once when u is in its layer's union,
// because a failed a at that layer with a → u tested and cleared every
// candidate in row(a) ⊇ row(u), and masks only shrink within a phase.
// Both the BFS and the phase's DFS loop start from the free left
// vertices highest index first: on the triangle, numbered by a linear
// extension, that puts an a above u before u, where the rules can
// fire. Of the returned stats only RowScans differs from the generic
// graph's over the same rows and seed.
func MaxMatchingBitsetWarm(b *BitsetBipartite, seedL []int) (Matching, MatchingStats) {
	matchL := make([]int, b.nLeft)
	matchR := make([]int, b.nRight)
	for i := range matchL {
		matchL[i] = unmatched
	}
	for i := range matchR {
		matchR[i] = unmatched
	}
	var st MatchingStats
	if seedL != nil {
		if len(seedL) != b.nLeft {
			panic(fmt.Sprintf("matching: seed covers %d left vertices, want %d", len(seedL), b.nLeft))
		}
		for u, v := range seedL {
			if v == unmatched {
				continue
			}
			if v < 0 || v >= b.nRight {
				panic(fmt.Sprintf("matching: seed right vertex %d out of range [0,%d)", v, b.nRight))
			}
			if !b.HasEdge(u, v) {
				panic(fmt.Sprintf("matching: seed pair (%d,%d) is not an edge", u, v))
			}
			if matchR[v] != unmatched {
				panic(fmt.Sprintf("matching: seed matches right vertex %d twice", v))
			}
			matchL[u] = v
			matchR[v] = u
			st.SeedSize++
		}
	}

	words := b.words
	dist := make([]int, b.nLeft) // BFS distance; read only for left vertices the BFS reached
	queue := make([]int, 0, b.nLeft)
	unvis := make([]uint64, words)
	// masks holds one bitset of words words per slot: slot 0 is the
	// free-right mask, slot k ≥ 1 the right vertices whose partner
	// sits at BFS distance k. It is rebuilt by every BFS and keeps its
	// capacity across phases. On a DAG graph, dead holds one bitset
	// per BFS distance: the union of the rows whose DFS failed there.
	var masks, dead []uint64

	bfs := func() bool {
		queue = queue[:0]
		for u := b.nLeft - 1; u >= 0; u-- {
			if matchL[u] == unmatched {
				dist[u] = 0
				queue = append(queue, u)
			}
		}
		for w := range unvis {
			unvis[w] = ^uint64(0)
		}
		if tail := b.nRight & 63; tail != 0 && words > 0 {
			unvis[words-1] = 1<<uint(tail) - 1
		}
		masks = append(masks[:0], make([]uint64, 2*words)...)
		found := false
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			next := dist[u] + 1
			if len(masks) < (next+2)*words {
				// Layer next+1 must exist for the DFS from layer next.
				masks = append(masks, make([]uint64, words)...)
			}
			if b.dag && !has(unvis, u) {
				continue // an expanded a → u already visited row(u)
			}
			st.RowScans++
			row := b.row(u)
			for w, bitsW := range row {
				cand := bitsW & unvis[w]
				if cand == 0 {
					continue
				}
				unvis[w] &^= cand
				for cand != 0 {
					v := w<<6 + bits.TrailingZeros64(cand)
					cand &= cand - 1
					x := matchR[v]
					if x == unmatched {
						found = true
						masks[w] |= 1 << uint(v&63)
					} else {
						// x is matched to v alone, so this is its only visit.
						dist[x] = next
						masks[next*words+w] |= 1 << uint(v&63)
						queue = append(queue, x)
					}
				}
			}
		}
		if b.dag {
			dead = append(dead[:0], make([]uint64, len(masks))...)
		}
		return found
	}

	var dfs func(u int) bool
	dfs = func(u int) bool {
		var deadU []uint64
		if b.dag {
			deadU = dead[dist[u]*words : (dist[u]+1)*words]
			if has(deadU, u) {
				return false // a failed a → u at this layer tested row(u)
			}
		}
		st.RowScans++
		row := b.row(u)
		free := masks[:len(row)]
		layer := masks[(dist[u]+1)*words:][:len(row)]
		for w, rw := range row {
			mask := free[w] | layer[w]
			if mask == 0 {
				continue
			}
			for cand := rw & mask; cand != 0; cand &= cand - 1 {
				bit := cand & -cand
				v := w<<6 + bits.TrailingZeros64(cand)
				st.Examined++
				if x := matchR[v]; x == unmatched {
					free[w] &^= bit
				} else {
					// Dead end or path through v: either way v is done
					// for this phase.
					layer[w] &^= bit
					if !dfs(x) {
						continue
					}
				}
				matchL[u] = v
				matchR[v] = u
				return true
			}
		}
		if b.dag {
			for w, rw := range row {
				deadU[w] |= rw
			}
		}
		return false
	}

	size := st.SeedSize
	for {
		st.Phases++
		if !bfs() {
			break
		}
		for u := b.nLeft - 1; u >= 0; u-- {
			if matchL[u] == unmatched && dfs(u) {
				size++
				st.Augmentations++
			}
		}
	}
	return Matching{MatchLeft: matchL, MatchRight: matchR, Size: size}, st
}

// MinVertexCoverBitset is MinVertexCover over the packed adjacency:
// König alternating reachability from free left vertices, with the
// same visited-right bitset trick as the matching BFS. On a
// BitsetFromDAG graph it takes the matching BFS's skip: a left u whose
// right copy is visited is not expanded, because the a that visited it
// has a → u and left no bit of row(a) ⊇ row(u) unvisited — a's own
// matched partner included, since visiting that partner is what
// queued a. Like the matching BFS it queues the free left vertices
// highest index first.
func MinVertexCoverBitset(b *BitsetBipartite, m Matching) (coverLeft, coverRight []bool) {
	visitedL := make([]bool, b.nLeft)
	visitedR := make([]bool, b.nRight)
	unvis := make([]uint64, b.words)
	for w := range unvis {
		unvis[w] = ^uint64(0)
	}
	if tail := b.nRight & 63; tail != 0 && b.words > 0 {
		unvis[b.words-1] = 1<<uint(tail) - 1
	}
	var queue []int
	for u := b.nLeft - 1; u >= 0; u-- {
		if m.MatchLeft[u] == unmatched {
			visitedL[u] = true
			queue = append(queue, u)
		}
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		if b.dag && !has(unvis, u) {
			continue
		}
		row := b.row(u)
		for w, bitsW := range row {
			cand := bitsW & unvis[w]
			if cand == 0 {
				continue
			}
			// Must leave the left side via an unmatched edge; the
			// matched partner stays reachable through other lefts.
			if mv := m.MatchLeft[u]; mv != unmatched && mv>>6 == w {
				cand &^= 1 << uint(mv&63)
			}
			unvis[w] &^= cand
			for cand != 0 {
				v := w<<6 + bits.TrailingZeros64(cand)
				cand &= cand - 1
				visitedR[v] = true
				x := m.MatchRight[v]
				if x != unmatched && !visitedL[x] {
					visitedL[x] = true
					queue = append(queue, x)
				}
			}
		}
	}
	coverLeft = make([]bool, b.nLeft)
	coverRight = make([]bool, b.nRight)
	for u := 0; u < b.nLeft; u++ {
		coverLeft[u] = !visitedL[u]
	}
	for v := 0; v < b.nRight; v++ {
		coverRight[v] = visitedR[v]
	}
	return coverLeft, coverRight
}
