package cpufeat

import "testing"

// TestKernelSelection: the features follow the CPU bits and the register
// state XCR0 says the OS saves; a feature the OS does not save for is never
// reported. blas runs its AVX-512 kernel on AVX512F and its AVX2 one on
// AVX2; sim runs its variate kernel only on AVX512DQ, and its differential
// test against the host's math only where math.Exp fuses (FMA).
func TestKernelSelection(t *testing.T) {
	const (
		fma, osxsave, avx       = 1 << 12, 1 << 27, 1 << 28
		avx2, avx512f, avx512dq = 1 << 5, 1 << 16, 1 << 17
		ymm, zmm                = 0b110, 0b1110_0110
	)
	none := Features{}
	onlyAVX2 := Features{FMA: true, AVX2: true}
	noDQ := Features{FMA: true, AVX2: true, AVX512F: true}
	all := Features{FMA: true, AVX2: true, AVX512F: true, AVX512DQ: true}
	for _, tc := range []struct {
		name string
		w    words
		want Features
	}{
		{"avx512f+dq: blas avx512, sim avx512", words{13, fma | osxsave | avx, avx2 | avx512f | avx512dq, zmm}, all},
		{"avx512f without dq: blas avx512, sim Go", words{13, fma | osxsave | avx, avx2 | avx512f, zmm}, noDQ},
		{"avx512dq without opmask/ZMM state: blas avx2, sim Go", words{13, fma | osxsave | avx, avx2 | avx512f | avx512dq, ymm}, onlyAVX2},
		{"avx512dq with ZMM_Hi256 state only", words{13, fma | osxsave | avx, avx2 | avx512f | avx512dq, ymm | 1<<6}, onlyAVX2},
		{"avx512dq without avx512f", words{13, fma | osxsave | avx, avx2 | avx512dq, zmm}, onlyAVX2},
		{"avx2", words{13, fma | osxsave | avx, avx2, zmm}, onlyAVX2},
		{"avx2 without fma", words{13, osxsave | avx, avx2, zmm}, Features{AVX2: true}},
		{"fma without leaf 7", words{6, fma | osxsave | avx, avx2 | avx512f | avx512dq, zmm}, Features{FMA: true}},
		{"avx2 without OSXSAVE", words{13, fma | avx, avx2 | avx512f | avx512dq, 0}, none},
		{"avx2 without YMM state", words{13, fma | osxsave | avx, avx2 | avx512f | avx512dq, 0b10}, none},
		{"avx512f without avx2", words{13, fma | osxsave | avx, avx512f | avx512dq, zmm}, Features{FMA: true}},
		{"no AVX bit", words{13, fma | osxsave, avx2 | avx512f | avx512dq, zmm}, none},
		{"no leaf 7", words{6, osxsave | avx, avx2 | avx512f | avx512dq, zmm}, none},
	} {
		if got := tc.w.features(); got != tc.want {
			t.Errorf("%s: %+v, want %+v", tc.name, got, tc.want)
		}
	}
}
