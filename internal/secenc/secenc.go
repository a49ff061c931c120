// Package secenc implements the symmetric encryption used for tuple
// payloads and index values: AES-128-CBC with PKCS#7 padding (the paper's
// choice, Section 8) and AES-128-CTR for fixed-width index cells.
//
// The schemes in this module are secure against honest-but-curious servers;
// ciphertexts carry no authentication tag (the adversary model is
// semi-honest, as in the paper).
package secenc

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/subtle"
	"errors"
	"fmt"
	"io"
	"slices"
)

// KeySize is the AES-128 key size in bytes.
const KeySize = 16

var (
	// ErrCiphertextTooShort is returned when a ciphertext is shorter than
	// one IV plus one block.
	ErrCiphertextTooShort = errors.New("secenc: ciphertext too short")
	// ErrBadPadding is returned when PKCS#7 padding is malformed.
	ErrBadPadding = errors.New("secenc: invalid PKCS#7 padding")
)

// Key is an AES-128 key.
type Key [KeySize]byte

// NewKey draws a fresh random AES key from r (crypto/rand.Reader if nil).
func NewKey(r io.Reader) (Key, error) {
	if r == nil {
		r = rand.Reader
	}
	var k Key
	if _, err := io.ReadFull(r, k[:]); err != nil {
		return Key{}, fmt.Errorf("secenc: generating key: %w", err)
	}
	return k, nil
}

// KeyFromBytes copies b into a Key; b must be exactly KeySize bytes.
func KeyFromBytes(b []byte) (Key, error) {
	var k Key
	if len(b) != KeySize {
		return k, fmt.Errorf("secenc: key must be %d bytes, got %d", KeySize, len(b))
	}
	copy(k[:], b)
	return k, nil
}

// unpad strips PKCS#7 padding.
func unpad(p []byte, blockSize int) ([]byte, error) {
	if len(p) == 0 || len(p)%blockSize != 0 {
		return nil, ErrBadPadding
	}
	n := int(p[len(p)-1])
	if n == 0 || n > blockSize || n > len(p) {
		return nil, ErrBadPadding
	}
	for _, b := range p[len(p)-n:] {
		if int(b) != n {
			return nil, ErrBadPadding
		}
	}
	return p[:len(p)-n], nil
}

// EncryptCBC encrypts plaintext with AES-128-CBC under k, using a fresh
// random IV drawn from r (crypto/rand.Reader if nil). The IV is prepended
// to the ciphertext.
func EncryptCBC(k Key, plaintext []byte, r io.Reader) ([]byte, error) {
	return AppendCBC(nil, NewBlock(k), plaintext, r)
}

// AppendCBC appends EncryptCBC's ciphertext to dst, under an already
// scheduled key (NewBlock). With a reader over IVs drawn at once and a
// reused dst, a ciphertext costs no key schedule, syscall or allocation.
func AppendCBC(dst []byte, block cipher.Block, plaintext []byte, r io.Reader) ([]byte, error) {
	if r == nil {
		r = rand.Reader
	}
	n := aes.BlockSize - len(plaintext)%aes.BlockSize
	start := len(dst)
	dst = slices.Grow(dst, aes.BlockSize+len(plaintext)+n)[:start+aes.BlockSize]
	if _, err := io.ReadFull(r, dst[start:]); err != nil {
		return nil, fmt.Errorf("secenc: generating IV: %w", err)
	}
	dst = append(dst, plaintext...)
	for range n {
		dst = append(dst, byte(n))
	}
	for off := start + aes.BlockSize; off < len(dst); off += aes.BlockSize {
		blk := dst[off : off+aes.BlockSize]
		subtle.XORBytes(blk, blk, dst[off-aes.BlockSize:off])
		block.Encrypt(blk, blk)
	}
	return dst, nil
}

// NewBlock returns the AES block cipher for k. A caller that decrypts
// many ciphertexts under one key builds it once and passes it to
// DecryptCBCBlock / DecryptCBCFirstBlock, paying the key schedule once
// instead of per ciphertext. The block is safe for concurrent use.
func NewBlock(k Key) cipher.Block {
	block, err := aes.NewCipher(k[:])
	if err != nil {
		// aes.NewCipher only fails on invalid key sizes, which the Key
		// type rules out.
		panic("secenc: " + err.Error())
	}
	return block
}

// checkCBCLength rejects anything that cannot be an EncryptCBC output:
// an IV followed by at least one whole block.
func checkCBCLength(ciphertext []byte) error {
	if len(ciphertext) < 2*aes.BlockSize || len(ciphertext)%aes.BlockSize != 0 {
		return ErrCiphertextTooShort
	}
	return nil
}

// DecryptCBC reverses EncryptCBC.
func DecryptCBC(k Key, ciphertext []byte) ([]byte, error) {
	return DecryptCBCBlock(NewBlock(k), ciphertext)
}

// DecryptCBCBlock is DecryptCBC under an already scheduled key (NewBlock).
func DecryptCBCBlock(block cipher.Block, ciphertext []byte) ([]byte, error) {
	if err := checkCBCLength(ciphertext); err != nil {
		return nil, err
	}
	iv := ciphertext[:aes.BlockSize]
	body := make([]byte, len(ciphertext)-aes.BlockSize)
	cipher.NewCBCDecrypter(block, iv).CryptBlocks(body, ciphertext[aes.BlockSize:])
	return unpad(body, aes.BlockSize)
}

// DecryptCBCFirstBlock decrypts only the first plaintext block of an
// EncryptCBC ciphertext into dst, for callers that need a fixed-width
// header of many ciphertexts and none of their bodies: one block
// operation, no allocation, whatever the ciphertext's length. It returns
// how many leading bytes of dst are plaintext — the whole block, unless
// the ciphertext holds a single block, whose PKCS#7 padding is then
// validated and excluded. Later blocks are not looked at, so a corrupt
// tail goes unnoticed here (DecryptCBC checks it).
func DecryptCBCFirstBlock(block cipher.Block, dst *[aes.BlockSize]byte, ciphertext []byte) (int, error) {
	if err := checkCBCLength(ciphertext); err != nil {
		return 0, err
	}
	block.Decrypt(dst[:], ciphertext[aes.BlockSize:2*aes.BlockSize])
	subtle.XORBytes(dst[:], dst[:], ciphertext[:aes.BlockSize])
	if len(ciphertext) > 2*aes.BlockSize {
		return aes.BlockSize, nil
	}
	plain, err := unpad(dst[:], aes.BlockSize)
	return len(plain), err
}

// XORKeyStreamBlock is the one AES-CTR counter walk: it sets dst to src
// XOR the keystream of block from counter ctr, crypto/cipher's CTR byte
// for byte (ctr is one 128-bit big-endian counter). ctr and ks are the
// caller's scratch, so a caller that keeps them in a long-lived object
// allocates nothing: ctr is left one past the last block used, ks holds
// that block's keystream. dst must be at least as long as src.
func XORKeyStreamBlock(block cipher.Block, ctr, ks *[aes.BlockSize]byte, dst, src []byte) {
	for off := 0; off < len(src); off += aes.BlockSize {
		block.Encrypt(ks[:], ctr[:])
		subtle.XORBytes(dst[off:], src[off:], ks[:])
		for i := aes.BlockSize - 1; i >= 0; i-- {
			if ctr[i]++; ctr[i] != 0 {
				break
			}
		}
	}
}

// NonceFromUint64 builds a CTR nonce from a 64-bit counter. The counter
// occupies the first 8 bytes; the low 8 bytes are left for the CTR block
// counter, so up to 2^64 blocks may be encrypted per nonce.
func NonceFromUint64(ctr uint64) [aes.BlockSize]byte {
	var n [aes.BlockSize]byte
	n[0] = byte(ctr >> 56)
	n[1] = byte(ctr >> 48)
	n[2] = byte(ctr >> 40)
	n[3] = byte(ctr >> 32)
	n[4] = byte(ctr >> 24)
	n[5] = byte(ctr >> 16)
	n[6] = byte(ctr >> 8)
	n[7] = byte(ctr)
	return n
}
