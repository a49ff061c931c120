package prf

// useSHANI picks compress and compress2 for F: the CPU has the SHA
// extensions (CPUID leaf 7, EBX bit 29) and the SSSE3 and SSE4.1
// shuffles and blends around them (leaf 1, ECX bits 9 and 19). The asm
// uses legacy-SSE encodings only, so no AVX or OS-state check is needed.
var useSHANI = hasSHANI()

func hasSHANI() bool {
	if maxLeaf, _, _ := cpuid(0); maxLeaf < 7 {
		return false
	}
	_, _, ecx1 := cpuid(1)
	_, ebx7, _ := cpuid(7)
	return ebx7&(1<<29) != 0 && ecx1&(1<<9) != 0 && ecx1&(1<<19) != 0
}

// cpuid executes CPUID for leaf (subleaf 0).
func cpuid(leaf uint32) (eax, ebx, ecx uint32)

// compress writes F's value to out: SHA-256 of the padded block whose
// words 0..7 are the key at k and words 8..11 are lo and hi (see
// words), run as 64 SHA-NI rounds from the IV with no framing.
//
//go:noescape
func compress(out *[KeySize]byte, k *Key, lo, hi uint64)

// compress2 is compress on two independent blocks at once.
//
//go:noescape
func compress2(out0, out1 *[KeySize]byte, k0, k1 *Key, lo0, hi0, lo1, hi1 uint64)
