package conformance

import "testing"

// TestWarmStartCornerFixtures replays the static NaN/±Inf shapes
// through the warm-start differential: the views' scalar-fallback
// materializations must still give the scalar oracle's width and
// valid certificates.
func TestWarmStartCornerFixtures(t *testing.T) {
	for _, in := range warmStartCornerFixtures() {
		if err := Safe(CheckDecomposeWarmStart, in); err != nil {
			t.Errorf("%s: %v", in.Family, err)
		}
	}
}

// TestWarmStartCheckRegistered pins the check into the deterministic
// suite so repro replay and benchtab -conformance can address it by
// name.
func TestWarmStartCheckRegistered(t *testing.T) {
	if CheckByName("decompose-warmstart-vs-scalar") == nil {
		t.Fatal("decompose-warmstart-vs-scalar not registered")
	}
}
