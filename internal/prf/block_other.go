//go:build !amd64

package prf

// useSHANI is false off amd64: F is sha256.Sum256 there.
var useSHANI = false

func compress(out *[KeySize]byte, k *Key, lo, hi uint64) {
	panic("prf: no SHA-NI compression on this GOARCH")
}

func compress2(out0, out1 *[KeySize]byte, k0, k1 *Key, lo0, hi0, lo1, hi1 uint64) {
	panic("prf: no SHA-NI compression on this GOARCH")
}
