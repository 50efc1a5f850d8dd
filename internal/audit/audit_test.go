package audit

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"monoclass/internal/dataset"
	"monoclass/internal/geom"
	"monoclass/internal/problem"
)

// auditSet prepares ws under default options and audits the Problem.
func auditSet(ws geom.WeightedSet) (Report, error) {
	p, err := problem.Prepare(ws, problem.Options{})
	if err != nil {
		return Report{}, err
	}
	return AuditProblem(p)
}

func TestAuditFigure1(t *testing.T) {
	ws := dataset.Figure1Weighted()
	r, err := auditSet(ws)
	if err != nil {
		t.Fatal(err)
	}
	if r.N != 16 || r.Dim != 2 {
		t.Errorf("N/Dim = %d/%d", r.N, r.Dim)
	}
	if r.Positives != 8 || r.Negatives != 8 {
		t.Errorf("labels %d/%d, want 8/8", r.Positives, r.Negatives)
	}
	if r.WeightTotal != 233 { // 13·1 + 100 + 2·60
		t.Errorf("WeightTotal = %g, want 233", r.WeightTotal)
	}
	if r.KStar != 104 {
		t.Errorf("KStar = %g, want 104", r.KStar)
	}
	if r.Width != 6 {
		t.Errorf("Width = %d, want 6", r.Width)
	}
	if r.Contending != 10 {
		t.Errorf("Contending = %d, want 10", r.Contending)
	}
	if r.DuplicateConflicts != 0 {
		t.Errorf("DuplicateConflicts = %d, want 0", r.DuplicateConflicts)
	}
	if r.ViolationPairs == 0 {
		t.Error("Figure 1 has violations; audit found none")
	}
	out := r.String()
	for _, frag := range []string{"points:", "k*", "dominance width"} {
		if !strings.Contains(out, frag) {
			t.Errorf("report missing %q", frag)
		}
	}
}

func TestAuditCleanAndConflicted(t *testing.T) {
	clean := geom.WeightedSet{
		{P: geom.Point{0, 0}, Label: geom.Negative, Weight: 1},
		{P: geom.Point{1, 1}, Label: geom.Positive, Weight: 2},
	}
	r, err := auditSet(clean)
	if err != nil {
		t.Fatal(err)
	}
	if r.ViolationPairs != 0 || r.KStar != 0 || r.Contending != 0 {
		t.Errorf("clean set mis-audited: %+v", r)
	}
	conflicted := geom.WeightedSet{
		{P: geom.Point{1, 1}, Label: geom.Negative, Weight: 3},
		{P: geom.Point{1, 1}, Label: geom.Positive, Weight: 5},
	}
	r, err = auditSet(conflicted)
	if err != nil {
		t.Fatal(err)
	}
	if r.DuplicateConflicts != 1 {
		t.Errorf("DuplicateConflicts = %d, want 1", r.DuplicateConflicts)
	}
	if r.KStar != 3 {
		t.Errorf("KStar = %g, want 3 (lighter side of the conflict)", r.KStar)
	}
}

func TestAuditErrors(t *testing.T) {
	if _, err := auditSet(nil); err == nil {
		t.Error("empty set accepted")
	}
	bad := geom.WeightedSet{{P: geom.Point{1}, Label: geom.Positive, Weight: -1}}
	if _, err := auditSet(bad); err == nil {
		t.Error("invalid weight accepted")
	}
}

func TestHasseDOTFigure1(t *testing.T) {
	dot, err := HasseDOT(dataset.Figure1())
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"digraph hasse", "p1", "p16", "->"} {
		if !strings.Contains(dot, frag) {
			t.Errorf("DOT missing %q:\n%s", frag, dot)
		}
	}
	// The Hasse diagram of Figure 1 must contain the chain C1's
	// covering edges: p1 -> p2 (p2 covers p1).
	if !strings.Contains(dot, "n0 -> n1;") {
		t.Errorf("expected covering edge p1 -> p2 in:\n%s", dot)
	}
	// Transitive edge p1 -> p10 must NOT appear (p10 covers p4, not p1).
	if strings.Contains(dot, "n0 -> n9;") {
		t.Error("transitive edge leaked into the Hasse diagram")
	}
}

func TestHasseDOTCollapsesDuplicates(t *testing.T) {
	pts := []geom.LabeledPoint{
		{P: geom.Point{1, 1}, Label: geom.Positive},
		{P: geom.Point{1, 1}, Label: geom.Negative},
		{P: geom.Point{0, 0}, Label: geom.Negative},
	}
	dot, err := HasseDOT(pts)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dot, `label="p1,p2"`) {
		t.Errorf("duplicates not collapsed:\n%s", dot)
	}
	if !strings.Contains(dot, `fillcolor="gray"`) {
		t.Errorf("mixed-label node not gray:\n%s", dot)
	}
}

func TestHasseDOTLimits(t *testing.T) {
	if _, err := HasseDOT(nil); err == nil {
		t.Error("empty set accepted")
	}
	big := make([]geom.LabeledPoint, 401)
	for i := range big {
		big[i] = geom.LabeledPoint{P: geom.Point{float64(i)}, Label: geom.Negative}
	}
	if _, err := HasseDOT(big); err == nil {
		t.Error("oversized set accepted")
	}
}

// Covering edges must reconstruct the full dominance relation via
// transitivity: reachability in the Hasse DAG == strict dominance.
func TestHasseReachabilityEqualsDominance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(20)
		pts := make([]geom.LabeledPoint, n)
		seen := map[string]bool{}
		for i := range pts {
			for {
				p := geom.Point{float64(rng.Intn(5)), float64(rng.Intn(5))}
				if !seen[p.String()] {
					seen[p.String()] = true
					pts[i] = geom.LabeledPoint{P: p, Label: geom.Label(rng.Intn(2))}
					break
				}
			}
		}
		dot, err := HasseDOT(pts)
		if err != nil {
			t.Fatal(err)
		}
		// Parse edges back out: an arrow "nA -> nB" is drawn upward,
		// meaning B covers A; record the downward adjacency B -> A.
		down := make([][]int, n)
		for _, line := range strings.Split(dot, "\n") {
			line = strings.TrimSpace(line)
			var a, b int
			if cnt, err := fmt.Sscanf(line, "n%d -> n%d;", &a, &b); err == nil && cnt == 2 {
				down[b] = append(down[b], a)
			}
		}
		reach := func(u, v int) bool {
			stack := []int{u}
			visited := make([]bool, n)
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if x == v {
					return true
				}
				if visited[x] {
					continue
				}
				visited[x] = true
				stack = append(stack, down[x]...)
			}
			return false
		}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u == v {
					continue
				}
				want := geom.StrictlyDominates(pts[u].P, pts[v].P)
				if got := reach(u, v); got != want {
					t.Fatalf("trial %d: reach(%d,%d)=%v but dominance=%v\n%s", trial, u, v, got, want, dot)
				}
			}
		}
	}
}

// TestAuditDuplicateGroupsSignedZero: duplicate groups are keyed on the
// coordinates' bits, so −0 and +0 stay apart as their %g strings do,
// while bit-equal points with both labels form one conflict.
func TestAuditDuplicateGroupsSignedZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	ws := geom.WeightedSet{
		{P: geom.Point{0, 1}, Label: geom.Negative, Weight: 1},
		{P: geom.Point{negZero, 1}, Label: geom.Positive, Weight: 1},
		{P: geom.Point{2, math.Inf(1)}, Label: geom.Negative, Weight: 1},
		{P: geom.Point{2, math.Inf(1)}, Label: geom.Positive, Weight: 2},
	}
	r, err := auditSet(ws)
	if err != nil {
		t.Fatal(err)
	}
	if r.DuplicateConflicts != 1 {
		t.Fatalf("DuplicateConflicts = %d, want 1 (−0 and +0 are distinct points)", r.DuplicateConflicts)
	}
}
