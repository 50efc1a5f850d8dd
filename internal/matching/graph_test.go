package matching

// newBitsetGraph returns an edgeless packed graph whose rows all take
// ceil(nRight/64) words, for tests to set edges on.
func newBitsetGraph(nLeft, nRight int) *BitsetBipartite {
	words := (nRight + 63) / 64
	off := make([]int, nLeft+1)
	for u := range off {
		off[u] = u * words
	}
	return BitsetFromRows(nLeft, nRight, make([]uint64, nLeft*words), off)
}

// setEdge adds the edge (u, v) to a graph newBitsetGraph built.
func (b *BitsetBipartite) setEdge(u, v int) {
	b.row(u)[v>>6] |= 1 << uint(v&63)
}

// coldMatching is MaxMatchingBitsetWarm from an empty matching.
func coldMatching(b *BitsetBipartite) Matching {
	m, _ := MaxMatchingBitsetWarm(b, nil)
	return m
}
