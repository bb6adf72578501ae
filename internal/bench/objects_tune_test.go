package bench

import (
	"testing"
)

// Tuning probe for the objects experiments; kept verbose-only.
func TestTuneObjects(t *testing.T) {
	if testing.Short() {
		t.Skip("tuning probe")
	}
	l := NewLab(DefaultOptions())
	_, test := l.Objects()
	base, err := l.ObjectsBaseline()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("baseline acc=%.3f", base.Accuracy(test.X, test.Y))
	for _, k := range []int{2, 4} {
		team, hist, err := l.ObjectsTeam(k)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("K=%d team acc=%.3f cum=%v", k, team.Accuracy(test.X, test.Y), hist.FinalCumulative())
		m, err := l.Fig9(k)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("\n%s", m)
	}
}
