package perfmodel

import "testing"

func TestXeonNames(t *testing.T) {
	if XeonE5540.String() != "E5540" || XeonE5450.String() != "E5450" {
		t.Fatal("model names changed")
	}
}

func TestXeonPeaks(t *testing.T) {
	if XeonE5540.CoreGFLOPS() != CPUCoreGFLOPS {
		t.Fatal("E5540 peak must match the element accounting constant")
	}
	if XeonE5450.CoreGFLOPS() != 12.0 {
		t.Fatalf("E5450 peak %v, want 3.0 GHz x 4", XeonE5450.CoreGFLOPS())
	}
}

func TestXeonInterference(t *testing.T) {
	// The paired-L2 Harpertown must suffer more from comm activity.
	if XeonE5450.InterferenceLoss() <= XeonE5540.InterferenceLoss() {
		t.Fatal("E5450 must have larger L2 interference")
	}
}

func TestE5450HigherClockButLowerEfficiency(t *testing.T) {
	old := CoreForXeon(XeonE5450, 1, false)
	nehalem := CoreForXeon(XeonE5540, 1, false)
	m := 4096
	// Higher peak wins on raw rate despite the efficiency handicap.
	if old.Rate(m, m, m, false) <= nehalem.Rate(m, m, m, false) {
		t.Fatal("E5450's clock advantage should still win on big DGEMMs")
	}
	if old.MaxEfficiency >= nehalem.MaxEfficiency {
		t.Fatal("E5450 efficiency ceiling must sit below Nehalem's")
	}
}
