package tensor

// useFMA reports whether the CPU and OS support AVX2 and FMA, the
// instruction sets fmaRowTransB needs. It is fixed once at start-up, so
// every row of every product in a process takes the same kernel.
var useFMA = detectAVX2FMA()

// detectAVX2FMA reads the feature bits with CPUID and checks with XGETBV
// that the OS saves the YMM registers across context switches.
func detectAVX2FMA() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const (
		fma     = 1 << 12
		osxsave = 1 << 27
		avx     = 1 << 28
	)
	if ecx1&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	const xmmYmmState = 1<<1 | 1<<2
	if xcr0, _ := xgetbv(); xcr0&xmmYmmState != xmmYmmState {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns extended control register 0.
func xgetbv() (eax, edx uint32)

// fmaRowTransB sets out[j] = a·b[j*k:(j+1)*k] for j < n, with four AVX2
// FMA lanes per output element (DESIGN.md §9). out must hold n elements,
// a k, and b n·k; k and n must be positive. matMulTransBRangeFMA checks
// all of that before calling it.
//
//go:noescape
func fmaRowTransB(out, a, b *float64, k, n int)
