// Package cpufeat makes the one decision every SIMD kernel in the module
// depends on: which x86 vector extensions this host has and its operating
// system saves across context switches. It reads CPUID and XCR0 once, at
// start-up; on other architectures, and under the purego build tag, every
// feature is off.
package cpufeat

// cpuidOSXSAVE is the CPUID leaf 1 ECX bit saying XGETBV may be executed.
const cpuidOSXSAVE = 1 << 27

// words are the CPUID and XCR0 words the decision reads.
type words struct {
	maxLeaf uint32 // CPUID leaf 0 EAX: the highest basic leaf
	ecx1    uint32 // CPUID leaf 1 ECX: FMA (bit 12), OSXSAVE (bit 27), AVX (bit 28)
	ebx7    uint32 // CPUID leaf 7 EBX: AVX2 (bit 5), AVX512F (bit 16), AVX512DQ (bit 17)
	xcr0    uint32 // XCR0, low word: the register state the OS saves
}

// Features are the extensions a kernel may use. AVX512DQ implies AVX512F,
// which implies AVX2.
type Features struct {
	FMA      bool // FMA3 and AVX with XMM and YMM state saved: math.Exp's fused path
	AVX2     bool // AVX2 with XMM and YMM state saved
	AVX512F  bool // AVX-512 Foundation with opmask, ZMM_Hi256 and Hi16_ZMM state saved as well
	AVX512DQ bool // AVX-512 Doubleword/Quadword on top of AVX512F
}

// features is what a CPU reporting w lets a kernel use: FMA and AVX2 need
// XMM and YMM state (XCR0 bits 1-2), the AVX-512 extensions the opmask,
// ZMM_Hi256 and Hi16_ZMM state (bits 5-7) as well. A feature the OS does not save
// registers for is never reported.
func (w words) features() Features {
	const (
		osxsaveAVX              = cpuidOSXSAVE | 1<<28
		fma                     = 1 << 12
		avx2, avx512f, avx512dq = 1 << 5, 1 << 16, 1 << 17
		ymmState                = 0b110
		zmmState                = 0b1110_0000 | ymmState
	)
	var f Features
	if w.ecx1&osxsaveAVX != osxsaveAVX || w.xcr0&ymmState != ymmState {
		return f
	}
	f.FMA = w.ecx1&fma != 0
	if w.maxLeaf < 7 || w.ebx7&avx2 == 0 {
		return f
	}
	f.AVX2 = true
	if w.ebx7&avx512f == 0 || w.xcr0&zmmState != zmmState {
		return f
	}
	f.AVX512F = true
	f.AVX512DQ = w.ebx7&avx512dq != 0
	return f
}

// Host is what this CPU and OS let a kernel use.
var Host = read().features()
