package perfmodel

// Power model of the TianHe-1 installation, calibrated from the paper's own
// numbers: one cabinet (32 nodes, 64 compute elements) draws 18.5 kW under
// Linpack load (Section VI.C, excluding air conditioning and UPS), and the
// full 80-cabinet run achieved 379.24 MFLOPS/W on the Green500 accounting.

const (
	// CabinetPowerKW is the measured cabinet draw under load.
	CabinetPowerKW = 18.5
	// ElementsPerCabinet is the compute-element packing (32 nodes x 2).
	ElementsPerCabinet = 64
)

// SystemPowerKW returns the draw of the given number of cabinets.
func SystemPowerKW(cabinets int) float64 {
	return float64(CabinetPowerKW * float64(cabinets))
}

// TrainingEnergyKWh returns the energy cost of a Qilin-style training phase:
// the paper measured two hours per cabinet at full draw, 37 kWh per cabinet
// and 2,960 kWh for the full machine.
func TrainingEnergyKWh(cabinets int) float64 {
	return TrainingHours * SystemPowerKW(cabinets)
}

// TrainingHours is the measured per-cabinet training duration.
const TrainingHours = 2.0
