//go:build !purego

package cpufeat

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// read fetches the words features decides on. Leaf 7 is read only where it
// exists, and XCR0 only under OSXSAVE (XGETBV faults without).
func read() words {
	var w words
	w.maxLeaf, _, _, _ = cpuid(0, 0)
	_, _, w.ecx1, _ = cpuid(1, 0)
	if w.maxLeaf >= 7 {
		_, w.ebx7, _, _ = cpuid(7, 0)
	}
	if w.ecx1&cpuidOSXSAVE != 0 {
		w.xcr0, _ = xgetbv()
	}
	return w
}
