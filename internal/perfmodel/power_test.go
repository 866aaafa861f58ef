package perfmodel

import (
	"math"
	"testing"
)

func TestSystemPower(t *testing.T) {
	if SystemPowerKW(80) != 1480 {
		t.Fatalf("80-cabinet power %v kW", SystemPowerKW(80))
	}
}

func TestGreen500MetricMatchesPaper(t *testing.T) {
	// The paper: 563.1 TFLOPS at 379.24 MFLOPS/W. Our power model implies
	// 563.1e6 / 1.48e6 = 380.5 — within half a percent of the published
	// Green500 figure (which uses the formally measured power).
	got := 563.1e6 / (SystemPowerKW(80) * 1e3)
	if math.Abs(got-379.24) > 5 {
		t.Fatalf("Green500 metric %v MFLOPS/W, paper reports 379.24", got)
	}
}

func TestTrainingEnergy(t *testing.T) {
	if TrainingEnergyKWh(1) != 37 || TrainingEnergyKWh(80) != 2960 {
		t.Fatalf("training energy %v / %v", TrainingEnergyKWh(1), TrainingEnergyKWh(80))
	}
}
