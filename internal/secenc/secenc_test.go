package secenc

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"errors"
	"slices"
	"testing"
	"testing/quick"
)

func testKey(t *testing.T, fill byte) Key {
	t.Helper()
	k, err := KeyFromBytes(bytes.Repeat([]byte{fill}, KeySize))
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestCBCRoundtrip(t *testing.T) {
	k := testKey(t, 1)
	for _, n := range []int{0, 1, 15, 16, 17, 100, 4096} {
		plain := bytes.Repeat([]byte{0xAB}, n)
		ct, err := EncryptCBC(k, plain, nil)
		if err != nil {
			t.Fatalf("encrypt %d bytes: %v", n, err)
		}
		got, err := DecryptCBC(k, ct)
		if err != nil {
			t.Fatalf("decrypt %d bytes: %v", n, err)
		}
		if !bytes.Equal(got, plain) {
			t.Fatalf("roundtrip failed for %d bytes", n)
		}
	}
}

func TestCBCRoundtripQuick(t *testing.T) {
	k := testKey(t, 2)
	f := func(plain []byte) bool {
		ct, err := EncryptCBC(k, plain, nil)
		if err != nil {
			return false
		}
		got, err := DecryptCBC(k, ct)
		return err == nil && bytes.Equal(got, plain)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCBCProbabilistic(t *testing.T) {
	k := testKey(t, 3)
	plain := []byte("same plaintext")
	a, _ := EncryptCBC(k, plain, nil)
	b, _ := EncryptCBC(k, plain, nil)
	if bytes.Equal(a, b) {
		t.Error("two encryptions of the same plaintext are identical (IV reuse?)")
	}
}

func TestCBCWrongKey(t *testing.T) {
	k1, k2 := testKey(t, 4), testKey(t, 5)
	ct, _ := EncryptCBC(k1, []byte("secret"), nil)
	got, err := DecryptCBC(k2, ct)
	if err == nil && bytes.Equal(got, []byte("secret")) {
		t.Error("wrong key decrypted successfully")
	}
}

func TestCBCCorruptCiphertext(t *testing.T) {
	k := testKey(t, 6)
	if _, err := DecryptCBC(k, []byte{1, 2, 3}); err == nil {
		t.Error("short ciphertext accepted")
	}
	ct, _ := EncryptCBC(k, []byte("hello world, this is long enough"), nil)
	if _, err := DecryptCBC(k, ct[:len(ct)-3]); err == nil {
		t.Error("truncated ciphertext accepted")
	}
}

func TestPKCS7(t *testing.T) {
	block := NewBlock(testKey(t, 7))
	for n := 0; n < 64; n++ {
		plain := bytes.Repeat([]byte{1}, n)
		ct, err := AppendCBC(nil, block, plain, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(ct) != aes.BlockSize*(2+n/aes.BlockSize) {
			t.Fatalf("pad(%d): %d-byte ciphertext", n, len(ct))
		}
		u, err := DecryptCBCBlock(block, ct)
		if err != nil {
			t.Fatalf("unpad(%d): %v", n, err)
		}
		if !bytes.Equal(u, plain) {
			t.Fatalf("unpad(%d) returned %d bytes", n, len(u))
		}
	}
}

// TestAppendCBCMatchesStdlib: AppendCBC writes the IV it reads, then
// crypto/cipher's CBC of the padded plaintext, after whatever dst held,
// and with room in dst it allocates nothing.
func TestAppendCBCMatchesStdlib(t *testing.T) {
	k := testKey(t, 8)
	block := NewBlock(k)
	ivs := bytes.Repeat([]byte{0x5c}, 2*aes.BlockSize)
	for n := 0; n < 40; n++ {
		plain := bytes.Repeat([]byte{byte(n)}, n)
		got, err := AppendCBC([]byte("prefix"), block, plain, bytes.NewReader(ivs))
		if err != nil {
			t.Fatal(err)
		}
		padded := append(slices.Clone(plain), bytes.Repeat([]byte{byte(16 - n%16)}, 16-n%16)...)
		want := append([]byte("prefix"), ivs[:aes.BlockSize]...)
		body := make([]byte, len(padded))
		cipher.NewCBCEncrypter(block, ivs[:aes.BlockSize]).CryptBlocks(body, padded)
		if want = append(want, body...); !bytes.Equal(got, want) {
			t.Fatalf("%d bytes: got %x, want %x", n, got, want)
		}
	}
	dst := make([]byte, 0, 64)
	r := bytes.NewReader(nil)
	if a := testing.AllocsPerRun(100, func() {
		r.Reset(ivs)
		if _, err := AppendCBC(dst, block, ivs[:20], r); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Fatalf("AppendCBC into a roomy dst: %v allocs", a)
	}
}

func TestUnpadRejectsGarbage(t *testing.T) {
	bad := [][]byte{
		{},
		bytes.Repeat([]byte{0}, 16),             // zero pad byte
		append(bytes.Repeat([]byte{1}, 15), 17), // pad > block
		append(bytes.Repeat([]byte{9}, 14), 2, 3), // inconsistent pad
		bytes.Repeat([]byte{1}, 15),               // not block aligned
	}
	for i, b := range bad {
		if _, err := unpad(b, aes.BlockSize); err == nil {
			t.Errorf("case %d: garbage padding accepted", i)
		}
	}
}

// xorCTR runs the CTR walk from nonce into a fresh output.
func xorCTR(block cipher.Block, nonce [aes.BlockSize]byte, src []byte) []byte {
	dst := make([]byte, len(src))
	var ks [aes.BlockSize]byte
	XORKeyStreamBlock(block, &nonce, &ks, dst, src)
	return dst
}

func TestCTRInvolution(t *testing.T) {
	block := NewBlock(testKey(t, 7))
	f := func(nonce [16]byte, data []byte) bool {
		ct := xorCTR(block, nonce, data)
		back := xorCTR(block, nonce, ct)
		return bytes.Equal(back, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestCTRMatchesStdlib pins XORKeyStreamBlock to crypto/cipher's CTR over
// every length up to several blocks, for nonces whose counter carries
// across byte, 64-bit and 128-bit boundaries — the cells every index
// already holds were written by the stdlib's stream.
func TestCTRMatchesStdlib(t *testing.T) {
	k := testKey(t, 10)
	src := make([]byte, 5*aes.BlockSize+3)
	for i := range src {
		src[i] = byte(i * 7)
	}
	nonces := [][16]byte{
		NonceFromUint64(0),
		NonceFromUint64(^uint64(0)),
		{15: 0xfe},
		{8: 0xff, 9: 0xff, 10: 0xff, 11: 0xff, 12: 0xff, 13: 0xff, 14: 0xff, 15: 0xfe},
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xfd},
	}
	block := NewBlock(k)
	for _, nonce := range nonces {
		for n := 0; n <= len(src); n++ {
			want := make([]byte, n)
			cipher.NewCTR(block, nonce[:]).XORKeyStream(want, src[:n])
			if got := xorCTR(block, nonce, src[:n]); !bytes.Equal(got, want) {
				t.Fatalf("nonce % x, %d bytes: differs from crypto/cipher's CTR", nonce, n)
			}
		}
	}
	f := func(nonce [16]byte, data []byte) bool {
		want := make([]byte, len(data))
		cipher.NewCTR(block, nonce[:]).XORKeyStream(want, data)
		return bytes.Equal(xorCTR(block, nonce, data), want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Into the caller's output and scratch, whatever the length: no
	// stream and its buffer.
	sc := &struct{ ctr, ks [aes.BlockSize]byte }{}
	dst := make([]byte, len(src))
	if got := testing.AllocsPerRun(100, func() { XORKeyStreamBlock(block, &sc.ctr, &sc.ks, dst, src) }); got > 0 {
		t.Errorf("XORKeyStreamBlock allocates %.0f objects/op, want 0", got)
	}
}

func TestCTRDistinctNonces(t *testing.T) {
	block := NewBlock(testKey(t, 8))
	plain := bytes.Repeat([]byte{0}, 32)
	a := xorCTR(block, NonceFromUint64(1), plain)
	b := xorCTR(block, NonceFromUint64(2), plain)
	if bytes.Equal(a, b) {
		t.Error("distinct nonces produced identical keystreams")
	}
}

func TestNonceFromUint64(t *testing.T) {
	n := NonceFromUint64(0x0102030405060708)
	want := [16]byte{1, 2, 3, 4, 5, 6, 7, 8}
	if n != want {
		t.Errorf("NonceFromUint64 = %v, want %v", n, want)
	}
}

func TestNewKey(t *testing.T) {
	a, err := NewKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Error("two fresh keys equal")
	}
	if _, err := KeyFromBytes(make([]byte, 5)); err == nil {
		t.Error("short key accepted")
	}
}

func BenchmarkEncryptCBC64(b *testing.B) {
	k, _ := KeyFromBytes(bytes.Repeat([]byte{1}, KeySize))
	plain := bytes.Repeat([]byte{7}, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := EncryptCBC(k, plain, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDecryptCBCFirstBlock: the first-block decrypt must agree with the
// full decrypt on every plaintext length (padding inside the first block
// excluded), under a shared key schedule, without looking past block one.
func TestDecryptCBCFirstBlock(t *testing.T) {
	k := testKey(t, 7)
	block := NewBlock(k)
	for n := 0; n <= 3*aes.BlockSize+1; n++ {
		plain := make([]byte, n)
		for i := range plain {
			plain[i] = byte(i + 1)
		}
		ct, err := EncryptCBC(k, plain, nil)
		if err != nil {
			t.Fatal(err)
		}
		var head [aes.BlockSize]byte
		got, err := DecryptCBCFirstBlock(block, &head, ct)
		if err != nil {
			t.Fatalf("%d bytes: %v", n, err)
		}
		if want := min(n, aes.BlockSize); got != want || !bytes.Equal(head[:got], plain[:want]) {
			t.Fatalf("%d bytes: first block = %x (%d bytes), want %x", n, head[:got], got, plain[:want])
		}
		full, err := DecryptCBCBlock(block, ct)
		if err != nil || !bytes.Equal(full, plain) {
			t.Fatalf("%d bytes: DecryptCBCBlock = %x, %v", n, full, err)
		}
		// A corrupt tail is invisible to the first-block decrypt.
		if len(ct) > 2*aes.BlockSize {
			ct[len(ct)-1] ^= 0xFF
			if _, err := DecryptCBCFirstBlock(block, &head, ct); err != nil {
				t.Fatalf("%d bytes: corrupt tail rejected: %v", n, err)
			}
		}
	}
}

func TestDecryptCBCFirstBlockErrors(t *testing.T) {
	k := testKey(t, 8)
	block := NewBlock(k)
	var head [aes.BlockSize]byte
	for _, n := range []int{0, 1, aes.BlockSize, 2*aes.BlockSize - 1, 2*aes.BlockSize + 1} {
		if _, err := DecryptCBCFirstBlock(block, &head, make([]byte, n)); !errors.Is(err, ErrCiphertextTooShort) {
			t.Errorf("%d-byte ciphertext: err = %v, want ErrCiphertextTooShort", n, err)
		}
	}
	// A single-block ciphertext carries its padding in the block being
	// decrypted, so that padding is checked: PKCS#7 never ends in 0.
	ct, err := EncryptCBC(k, []byte("12345678"), nil)
	if err != nil {
		t.Fatal(err)
	}
	ct[aes.BlockSize-1] ^= 8 // flips the last plaintext byte, 0x08, to 0
	if _, err := DecryptCBCFirstBlock(block, &head, ct); !errors.Is(err, ErrBadPadding) {
		t.Errorf("bad single-block padding: err = %v, want ErrBadPadding", err)
	}
}

func TestDecryptCBCFirstBlockAllocs(t *testing.T) {
	k := testKey(t, 9)
	block := NewBlock(k)
	ct, err := EncryptCBC(k, bytes.Repeat([]byte{3}, 100), nil)
	if err != nil {
		t.Fatal(err)
	}
	head := new([aes.BlockSize]byte)
	if got := testing.AllocsPerRun(100, func() {
		if _, err := DecryptCBCFirstBlock(block, head, ct); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("DecryptCBCFirstBlock allocates %.0f objects/op, want 0", got)
	}
}
