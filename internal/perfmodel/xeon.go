package perfmodel

// TianHe-1 mixed two Xeon generations (Section III): 4096 quad-core E5540
// (Nehalem, 2.53 GHz, per-core L2 + shared L3) and 1024 quad-core E5450
// (Harpertown, 3.0 GHz, cores paired on shared 6 MB L2). The paper's Section
// IV.A discusses the E5450 arrangement explicitly: the core sharing an L2
// with the communication core degrades while transfers run, and Section VI.A
// notes the SSE4.1 streaming loads used on the E5450s to relieve memory
// bandwidth.

// Xeon identifies a host processor model.
type Xeon int

const (
	// XeonE5540 is the 2.53 GHz Nehalem part (the majority of the machine).
	XeonE5540 Xeon = iota
	// XeonE5450 is the 3.0 GHz Harpertown part with paired-L2 cores.
	XeonE5450
)

func (x Xeon) String() string {
	if x == XeonE5450 {
		return "E5450"
	}
	return "E5540"
}

// CoreGFLOPS returns the double-precision per-core peak of the model
// (4 flops/cycle in both generations).
func (x Xeon) CoreGFLOPS() float64 {
	if x == XeonE5450 {
		return 12.0 // 3.0 GHz x 4
	}
	return CPUCoreGFLOPS // 2.53 GHz x 4
}

// InterferenceLoss returns the fractional rate loss of the comm-adjacent
// core while CPU-GPU communication is active. The Harpertown pairs share an
// L2, so the loss is larger; Nehalem cores only contend on the L3 and
// memory controller.
func (x Xeon) InterferenceLoss() float64 {
	if x == XeonE5450 {
		return 0.14
	}
	return 0.10
}

// MaxEfficiency returns the DGEMM efficiency ceiling of the tuned host
// library on the model. The E5450's front-side bus starves the kernel
// slightly despite the higher clock (the streaming-load trick recovers part
// of it, which is already folded in here).
func (x Xeon) MaxEfficiency() float64 {
	if x == XeonE5450 {
		return 0.90
	}
	return 0.97
}

// CoreForXeon returns the per-core rate model of the given processor.
func CoreForXeon(x Xeon, bias float64, l2Shared bool) CPUCore {
	return CPUCore{
		PeakGFLOPS:       x.CoreGFLOPS(),
		MaxEfficiency:    x.MaxEfficiency(),
		DimHalf:          8,
		L2SharedWithComm: l2Shared,
		InterferenceLoss: x.InterferenceLoss(),
		Bias:             bias,
	}
}
