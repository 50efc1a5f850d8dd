package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"monoclass/internal/classifier"
	"monoclass/internal/geom"
)

// thresholdModel returns the 1-D anchor model h(x)=1 iff x >= tau.
func thresholdModel(t testing.TB, tau float64) *classifier.AnchorSet {
	t.Helper()
	h, err := classifier.NewAnchorSet(1, []geom.Point{{tau}})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestRegistryInitialSnapshot(t *testing.T) {
	reg, err := NewRegistry(thresholdModel(t, 5), nil)
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap.Version != 1 {
		t.Errorf("initial version = %d, want 1", snap.Version)
	}
	if reg.Dim() != 1 {
		t.Errorf("Dim = %d, want 1", reg.Dim())
	}
	if got := snap.Model.Classify(geom.Point{7}); got != geom.Positive {
		t.Errorf("initial model misclassifies: %v", got)
	}
	if reg.Swaps() != 0 || reg.AuditRejects() != 0 {
		t.Errorf("fresh registry has counters swaps=%d rejects=%d", reg.Swaps(), reg.AuditRejects())
	}
}

func TestRegistryNilModels(t *testing.T) {
	if _, err := NewRegistry(nil, nil); err == nil {
		t.Error("NewRegistry(nil) accepted")
	}
	reg, _ := NewRegistry(thresholdModel(t, 0), nil)
	if _, err := reg.Swap(nil); err == nil {
		t.Error("Swap(nil) accepted")
	}
}

func TestRegistrySwapAssignsSequentialVersions(t *testing.T) {
	reg, _ := NewRegistry(thresholdModel(t, 0), nil)
	for want := int64(2); want <= 6; want++ {
		v, err := reg.Swap(thresholdModel(t, float64(want)))
		if err != nil {
			t.Fatal(err)
		}
		if v != want {
			t.Fatalf("swap assigned version %d, want %d", v, want)
		}
		if reg.Version() != want {
			t.Fatalf("Version() = %d after swap to %d", reg.Version(), want)
		}
	}
	if reg.Swaps() != 5 {
		t.Errorf("Swaps = %d, want 5", reg.Swaps())
	}
}

func TestRegistryRejectsDimensionMismatch(t *testing.T) {
	reg, _ := NewRegistry(thresholdModel(t, 0), nil)
	bad, err := classifier.NewAnchorSet(3, []geom.Point{{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Swap(bad); err == nil {
		t.Fatal("dimension-mismatched swap accepted")
	}
	if reg.Version() != 1 {
		t.Errorf("failed swap advanced the version to %d", reg.Version())
	}
}

func TestRegistryAuditGate(t *testing.T) {
	boom := errors.New("boom")
	calls := 0
	audit := func(old, next *classifier.AnchorSet) error {
		calls++
		if old == nil {
			t.Error("audit called with nil old model")
		}
		if len(next.Anchors()) > 1 {
			return boom
		}
		return nil
	}
	reg, _ := NewRegistry(thresholdModel(t, 0), audit)

	if _, err := reg.Swap(thresholdModel(t, 1)); err != nil {
		t.Fatalf("clean swap rejected: %v", err)
	}
	multi, _ := classifier.NewAnchorSet(1, nil) // 0 anchors: fine
	if _, err := reg.Swap(multi); err != nil {
		t.Fatalf("const-negative swap rejected: %v", err)
	}

	// Anchor sets prune to antichains, so a >1-anchor model needs 2-D;
	// use a fresh 2-D registry to exercise the veto path.
	reg2d, _ := NewRegistry(classifier.MustAnchorSet(2, []geom.Point{{0, 0}}), audit)
	wide := classifier.MustAnchorSet(2, []geom.Point{{0, 5}, {5, 0}})
	_, err := reg2d.Swap(wide)
	if !errors.Is(err, boom) {
		t.Fatalf("audit veto not propagated: %v", err)
	}
	if reg2d.Version() != 1 {
		t.Errorf("vetoed swap advanced version to %d", reg2d.Version())
	}
	if reg2d.AuditRejects() != 1 {
		t.Errorf("AuditRejects = %d, want 1", reg2d.AuditRejects())
	}
	if calls == 0 {
		t.Error("audit gate never ran")
	}
}

func TestSpotAuditAcceptsAnchorSets(t *testing.T) {
	audit := SpotAudit([]geom.Point{{0, 0}, {1, 1}, {2, 0}})
	old := classifier.MustAnchorSet(2, []geom.Point{{1, 1}})
	next := classifier.MustAnchorSet(2, []geom.Point{{0, 2}, {2, 0}})
	if err := audit(old, next); err != nil {
		t.Errorf("SpotAudit rejected a valid anchor model: %v", err)
	}
}

func TestHoldoutAudit(t *testing.T) {
	holdout := geom.WeightedSet{
		{P: geom.Point{0}, Label: geom.Negative, Weight: 1},
		{P: geom.Point{10}, Label: geom.Positive, Weight: 3},
	}
	audit := HoldoutAudit(holdout, 0.5)
	good := thresholdModel(t, 5) // classifies both correctly
	if err := audit(nil, good); err != nil {
		t.Errorf("good model rejected: %v", err)
	}
	bad := thresholdModel(t, 100) // misses the weight-3 positive
	if err := audit(nil, bad); err == nil {
		t.Error("over-budget model accepted")
	}
}

func TestChainAudits(t *testing.T) {
	var order []string
	mk := func(name string, fail bool) AuditFunc {
		return func(_, _ *classifier.AnchorSet) error {
			order = append(order, name)
			if fail {
				return fmt.Errorf("%s failed", name)
			}
			return nil
		}
	}
	chain := ChainAudits(mk("a", false), nil, mk("b", true), mk("c", false))
	err := chain(nil, nil)
	if err == nil || err.Error() != "b failed" {
		t.Fatalf("chain error = %v, want b's", err)
	}
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("chain ran %v, want [a b]", order)
	}
}

// TestRegistrySwapStorm races many swappers against many readers under
// the race detector: versions must stay monotone per reader, every
// snapshot must be internally coherent (version v serves threshold v),
// and the final swap count must match successes.
func TestRegistrySwapStorm(t *testing.T) {
	reg, _ := NewRegistry(thresholdModel(t, 1), nil)
	const (
		swappers = 4
		readers  = 8
		perSwap  = 50
	)
	var wrong atomic.Int64
	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	readerWG.Add(readers)
	for i := 0; i < readers; i++ {
		go func() {
			defer readerWG.Done()
			lastVersion := int64(0)
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := reg.Snapshot()
				if snap.Version < lastVersion {
					wrong.Add(1) // versions must never run backwards
				}
				lastVersion = snap.Version
				// Coherence: version v's model is the threshold at v, so
				// v-0.5 is negative and v+0.5 positive.
				if snap.Model.Classify(geom.Point{float64(snap.Version) - 0.5}) != geom.Negative ||
					snap.Model.Classify(geom.Point{float64(snap.Version) + 0.5}) != geom.Positive {
					wrong.Add(1)
				}
			}
		}()
	}

	// Swappers keep the version→threshold correspondence exact by
	// serializing the read-version/build/swap step through a test-side
	// mutex (the registry itself orders publications, but the model for
	// version v+1 must be built against the version read as v).
	var swapWG sync.WaitGroup
	swapWG.Add(swappers)
	var successes atomic.Int64
	var buildMu sync.Mutex
	for i := 0; i < swappers; i++ {
		go func() {
			defer swapWG.Done()
			for k := 0; k < perSwap; k++ {
				buildMu.Lock()
				v := reg.Version()
				got, err := reg.Swap(thresholdModel(t, float64(v+1)))
				buildMu.Unlock()
				if err != nil || got != v+1 {
					wrong.Add(1)
					continue
				}
				successes.Add(1)
			}
		}()
	}
	swapWG.Wait()
	close(stop)
	readerWG.Wait()

	if wrong.Load() != 0 {
		t.Fatalf("%d coherence violations during the storm", wrong.Load())
	}
	if reg.Swaps() != successes.Load() {
		t.Errorf("Swaps = %d but %d swaps succeeded", reg.Swaps(), successes.Load())
	}
	if reg.Version() != successes.Load()+1 {
		t.Errorf("final version %d, want %d", reg.Version(), successes.Load()+1)
	}
}
