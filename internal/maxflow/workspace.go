package maxflow

import "sync"

// WorkspaceStats counts the operations of the most recent
// Workspace-backed solve; useful for tuning and for tests that need to
// observe heuristic behavior (e.g. that a global relabel fired).
type WorkspaceStats struct {
	Pushes         int64
	Relabels       int64
	GlobalRelabels int64 // includes the initial exact-distance labeling
	Gaps           int64 // gap-heuristic events (emptied height level)
}

// Workspace holds every piece of solver scratch the highest-label
// push-relabel engine needs — height labels, excess, current-arc
// cursors, the height-indexed active buckets, and the BFS queue used
// by global relabeling. A Workspace grows monotonically and is reused
// across solves via SolveWith, so batch, streaming, and conformance
// workloads re-solve with zero steady-state allocations. A Workspace
// is not safe for concurrent use; use one per goroutine (or
// PushRelabelHL, which draws from a sync.Pool).
type Workspace struct {
	height []int32   // height label per vertex
	excess []float64 // preflow excess per vertex
	cur    []int32   // current arc per vertex, absolute CSR index
	next   []int32   // intrusive singly-linked bucket chains
	bucket []int32   // head of the active list per height, -1 when empty
	count  []int32   // vertices per height, for the gap heuristic
	lnext  []int32   // doubly-linked all-vertex layer lists, by height
	lprev  []int32   // (gap lifts walk a layer instead of every vertex)
	lhead  []int32   // head of the layer list per height, -1 when empty
	queue  []int32   // scratch for the global-relabel BFS
	dMax   int32     // stale upper bound on the max height below n

	// Stats describes the most recent SolveWith call.
	Stats WorkspaceStats
}

// NewWorkspace returns an empty workspace; it sizes itself to the
// first network it solves and grows only when a larger one arrives.
func NewWorkspace() *Workspace { return &Workspace{} }

// ensure sizes the scratch slices for an n-vertex network without
// allocating when current capacity suffices.
func (ws *Workspace) ensure(n int) {
	if n <= cap(ws.height) && 2*n+1 <= cap(ws.bucket) && 2*n+2 <= cap(ws.count) && 2*n+2 <= cap(ws.lhead) {
		ws.height = ws.height[:n]
		ws.excess = ws.excess[:n]
		ws.cur = ws.cur[:n]
		ws.next = ws.next[:n]
		ws.queue = ws.queue[:n]
		ws.lnext = ws.lnext[:n]
		ws.lprev = ws.lprev[:n]
		ws.bucket = ws.bucket[:2*n+1]
		ws.count = ws.count[:2*n+2]
		ws.lhead = ws.lhead[:2*n+2]
		return
	}
	ws.height = make([]int32, n)
	ws.excess = make([]float64, n)
	ws.cur = make([]int32, n)
	ws.next = make([]int32, n)
	ws.queue = make([]int32, n)
	ws.lnext = make([]int32, n)
	ws.lprev = make([]int32, n)
	ws.bucket = make([]int32, 2*n+1)
	ws.count = make([]int32, 2*n+2)
	ws.lhead = make([]int32, 2*n+2)
}

// hlPool backs PushRelabelHL: workspaces are recycled across calls so
// steady-state batch solving does not allocate scratch.
var hlPool = sync.Pool{New: func() any { return NewWorkspace() }}
