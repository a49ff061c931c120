// Copyright 2024 The Go Authors. All rights reserved.
//
// Redistribution and use in source and binary forms, with or without
// modification, are permitted provided that the following conditions are
// met:
//
//    * Redistributions of source code must retain the above copyright
// notice, this list of conditions and the following disclaimer.
//    * Redistributions in binary form must reproduce the above
// copyright notice, this list of conditions and the following disclaimer
// in the documentation and/or other materials provided with the
// distribution.
//    * Neither the name of Google LLC nor the names of its
// contributors may be used to endorse or promote products derived from
// this software without specific prior written permission.
//
// THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
// "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
// LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
// A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
// OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
// SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
// LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
// DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
// THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
// (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
// OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
//
// The rounds are blockSHANI from the Go standard library
// (crypto/internal/fips140/sha256/sha256block_amd64.s), after S. Gulley
// et al., "New Instructions Supporting the Secure Hash Algorithm on
// Intel Architecture Processors", July 2013. Changed here: the input is
// always F's one padded block and the chaining value always the SHA-256
// IV. So the IV and the last four message words come from constants,
// words 0..7 straight from the key and words 8..11 from two registers;
// the output is the byte-swapped digest; compress2 runs two independent
// blocks quad-round by quad-round; and every move is legacy SSE, so SHA,
// SSSE3 and SSE4.1 are all a caller has to check for.

#include "textflag.h"

// The SHA-256 IV in the lane order SHA256RNDS2 keeps its state in:
// ABEF holds the words f, e, b, a and CDGH the words h, g, d, c, lane 0
// first.
DATA ivABEF<>+0(SB)/4, $0x9b05688c
DATA ivABEF<>+4(SB)/4, $0x510e527f
DATA ivABEF<>+8(SB)/4, $0xbb67ae85
DATA ivABEF<>+12(SB)/4, $0x6a09e667
GLOBL ivABEF<>(SB), RODATA|NOPTR, $16

DATA ivCDGH<>+0(SB)/4, $0x5be0cd19
DATA ivCDGH<>+4(SB)/4, $0x1f83d9ab
DATA ivCDGH<>+8(SB)/4, $0xa54ff53a
DATA ivCDGH<>+12(SB)/4, $0x3c6ef372
GLOBL ivCDGH<>(SB), RODATA|NOPTR, $16

// Message words 12..15 of every F block: zero padding, then the
// message's bit length, 41*8.
DATA padRow<>+0(SB)/8, $0
DATA padRow<>+8(SB)/8, $0x0000014800000000
GLOBL padRow<>(SB), RODATA|NOPTR, $16

// PSHUFB mask that byte-swaps each 32-bit lane.
DATA flipMask<>+0(SB)/8, $0x0405060700010203
DATA flipMask<>+8(SB)/8, $0x0c0d0e0f08090a0b
GLOBL flipMask<>(SB), RODATA|NOPTR, $16

// The 64 round constants, four per 16-byte row.
DATA kRound<>+0x00(SB)/4, $0x428a2f98
DATA kRound<>+0x04(SB)/4, $0x71374491
DATA kRound<>+0x08(SB)/4, $0xb5c0fbcf
DATA kRound<>+0x0c(SB)/4, $0xe9b5dba5
DATA kRound<>+0x10(SB)/4, $0x3956c25b
DATA kRound<>+0x14(SB)/4, $0x59f111f1
DATA kRound<>+0x18(SB)/4, $0x923f82a4
DATA kRound<>+0x1c(SB)/4, $0xab1c5ed5
DATA kRound<>+0x20(SB)/4, $0xd807aa98
DATA kRound<>+0x24(SB)/4, $0x12835b01
DATA kRound<>+0x28(SB)/4, $0x243185be
DATA kRound<>+0x2c(SB)/4, $0x550c7dc3
DATA kRound<>+0x30(SB)/4, $0x72be5d74
DATA kRound<>+0x34(SB)/4, $0x80deb1fe
DATA kRound<>+0x38(SB)/4, $0x9bdc06a7
DATA kRound<>+0x3c(SB)/4, $0xc19bf174
DATA kRound<>+0x40(SB)/4, $0xe49b69c1
DATA kRound<>+0x44(SB)/4, $0xefbe4786
DATA kRound<>+0x48(SB)/4, $0x0fc19dc6
DATA kRound<>+0x4c(SB)/4, $0x240ca1cc
DATA kRound<>+0x50(SB)/4, $0x2de92c6f
DATA kRound<>+0x54(SB)/4, $0x4a7484aa
DATA kRound<>+0x58(SB)/4, $0x5cb0a9dc
DATA kRound<>+0x5c(SB)/4, $0x76f988da
DATA kRound<>+0x60(SB)/4, $0x983e5152
DATA kRound<>+0x64(SB)/4, $0xa831c66d
DATA kRound<>+0x68(SB)/4, $0xb00327c8
DATA kRound<>+0x6c(SB)/4, $0xbf597fc7
DATA kRound<>+0x70(SB)/4, $0xc6e00bf3
DATA kRound<>+0x74(SB)/4, $0xd5a79147
DATA kRound<>+0x78(SB)/4, $0x06ca6351
DATA kRound<>+0x7c(SB)/4, $0x14292967
DATA kRound<>+0x80(SB)/4, $0x27b70a85
DATA kRound<>+0x84(SB)/4, $0x2e1b2138
DATA kRound<>+0x88(SB)/4, $0x4d2c6dfc
DATA kRound<>+0x8c(SB)/4, $0x53380d13
DATA kRound<>+0x90(SB)/4, $0x650a7354
DATA kRound<>+0x94(SB)/4, $0x766a0abb
DATA kRound<>+0x98(SB)/4, $0x81c2c92e
DATA kRound<>+0x9c(SB)/4, $0x92722c85
DATA kRound<>+0xa0(SB)/4, $0xa2bfe8a1
DATA kRound<>+0xa4(SB)/4, $0xa81a664b
DATA kRound<>+0xa8(SB)/4, $0xc24b8b70
DATA kRound<>+0xac(SB)/4, $0xc76c51a3
DATA kRound<>+0xb0(SB)/4, $0xd192e819
DATA kRound<>+0xb4(SB)/4, $0xd6990624
DATA kRound<>+0xb8(SB)/4, $0xf40e3585
DATA kRound<>+0xbc(SB)/4, $0x106aa070
DATA kRound<>+0xc0(SB)/4, $0x19a4c116
DATA kRound<>+0xc4(SB)/4, $0x1e376c08
DATA kRound<>+0xc8(SB)/4, $0x2748774c
DATA kRound<>+0xcc(SB)/4, $0x34b0bcb5
DATA kRound<>+0xd0(SB)/4, $0x391c0cb3
DATA kRound<>+0xd4(SB)/4, $0x4ed8aa4a
DATA kRound<>+0xd8(SB)/4, $0x5b9cca4f
DATA kRound<>+0xdc(SB)/4, $0x682e6ff3
DATA kRound<>+0xe0(SB)/4, $0x748f82ee
DATA kRound<>+0xe4(SB)/4, $0x78a5636f
DATA kRound<>+0xe8(SB)/4, $0x84c87814
DATA kRound<>+0xec(SB)/4, $0x8cc70208
DATA kRound<>+0xf0(SB)/4, $0x90befffa
DATA kRound<>+0xf4(SB)/4, $0xa4506ceb
DATA kRound<>+0xf8(SB)/4, $0xbef9a3f7
DATA kRound<>+0xfc(SB)/4, $0xc67178f2
GLOBL kRound<>(SB), RODATA|NOPTR, $256

// Register use. X0 is SHA256RNDS2's implicit message operand, X7 a
// scratch, X8 the flip mask. The first (or only) block keeps its state
// in X1 (ABEF) and X2 (CDGH) and its message schedule in X3..X6; the
// second in X9, X10 and X11..X14. X15 and every general register the
// Go ABI reserves are left alone.

// INIT sets a state to the IV and loads F's block: the key at k,
// byte-swapped into words 0..7, words 8..11 from lo and hi, and the
// constant words 12..15.
#define INIT(k, lo, hi, abef, cdgh, m0, m1, m2, m3) \
	MOVOU  ivABEF<>(SB), abef; \
	MOVOU  ivCDGH<>(SB), cdgh; \
	MOVOU  0(k), m0; \
	PSHUFB X8, m0; \
	MOVOU  16(k), m1; \
	PSHUFB X8, m1; \
	MOVQ   lo, m2; \
	PINSRQ $1, hi, m2; \
	MOVOU  padRow<>(SB), m3

// ROUNDS4 runs four rounds on message words m with the constants at
// byte offset k.
#define ROUNDS4(k, m, abef, cdgh) \
	MOVO        m, X0; \
	PADDD       kRound<>+k(SB), X0; \
	SHA256RNDS2 X0, abef, cdgh; \
	PSHUFD      $0x0e, X0, X0; \
	SHA256RNDS2 X0, cdgh, abef

// SCHED finishes the next four message words in next from the current
// ones in cur and the previous ones in prev.
#define SCHED(cur, prev, next) \
	MOVO       cur, X7; \
	PALIGNR    $4, prev, X7; \
	PADDD      X7, next; \
	SHA256MSG2 cur, next

// QUAD is rounds 12..51 in steps of four: ROUNDS4, SCHED and the first
// half of a later schedule step.
#define QUAD(k, cur, prev, next, abef, cdgh) \
	ROUNDS4(k, cur, abef, cdgh); \
	SCHED(cur, prev, next); \
	SHA256MSG1 cur, prev

// FINISH adds the IV to a state and writes its digest, big-endian, to out.
#define FINISH(out, abef, cdgh) \
	PADDD   ivABEF<>(SB), abef; \
	PADDD   ivCDGH<>(SB), cdgh; \
	PSHUFD  $0x1b, abef, abef; \
	PSHUFD  $0xb1, cdgh, cdgh; \
	MOVO    abef, X7; \
	PBLENDW $0xf0, cdgh, abef; \
	PALIGNR $8, X7, cdgh; \
	PSHUFB  X8, abef; \
	PSHUFB  X8, cdgh; \
	MOVOU   abef, 0(out); \
	MOVOU   cdgh, 16(out)

// func compress(out *[32]byte, k *Key, lo, hi uint64)
TEXT ·compress(SB), NOSPLIT, $0-32
	MOVQ  out+0(FP), DI
	MOVQ  k+8(FP), SI
	MOVQ  lo+16(FP), AX
	MOVQ  hi+24(FP), BX
	MOVOU flipMask<>(SB), X8
	INIT(SI, AX, BX, X1, X2, X3, X4, X5, X6)
	ROUNDS4(0x00, X3, X1, X2)
	ROUNDS4(0x10, X4, X1, X2)
	SHA256MSG1 X4, X3
	ROUNDS4(0x20, X5, X1, X2)
	SHA256MSG1 X5, X4
	QUAD(0x30, X6, X5, X3, X1, X2)
	QUAD(0x40, X3, X6, X4, X1, X2)
	QUAD(0x50, X4, X3, X5, X1, X2)
	QUAD(0x60, X5, X4, X6, X1, X2)
	QUAD(0x70, X6, X5, X3, X1, X2)
	QUAD(0x80, X3, X6, X4, X1, X2)
	QUAD(0x90, X4, X3, X5, X1, X2)
	QUAD(0xa0, X5, X4, X6, X1, X2)
	QUAD(0xb0, X6, X5, X3, X1, X2)
	QUAD(0xc0, X3, X6, X4, X1, X2)
	ROUNDS4(0xd0, X4, X1, X2)
	SCHED(X4, X3, X5)
	ROUNDS4(0xe0, X5, X1, X2)
	SCHED(X5, X4, X6)
	ROUNDS4(0xf0, X6, X1, X2)
	FINISH(DI, X1, X2)
	RET

// func compress2(out0, out1 *[32]byte, k0, k1 *Key, lo0, hi0, lo1, hi1 uint64)
//
// The two blocks alternate every four rounds. SHA256RNDS2 is
// latency-bound, so the second chain fills the first one's stalls; the
// shared X0 and X7 are renamed apart by the CPU. Both keys are read
// before either output is written.
TEXT ·compress2(SB), NOSPLIT, $0-64
	MOVQ  k0+16(FP), SI
	MOVQ  lo0+32(FP), AX
	MOVQ  hi0+40(FP), BX
	MOVOU flipMask<>(SB), X8
	INIT(SI, AX, BX, X1, X2, X3, X4, X5, X6)
	MOVQ  k1+24(FP), SI
	MOVQ  lo1+48(FP), AX
	MOVQ  hi1+56(FP), BX
	INIT(SI, AX, BX, X9, X10, X11, X12, X13, X14)
	MOVQ  out0+0(FP), DI
	MOVQ  out1+8(FP), DX
	ROUNDS4(0x00, X3, X1, X2)
	ROUNDS4(0x00, X11, X9, X10)
	ROUNDS4(0x10, X4, X1, X2)
	SHA256MSG1 X4, X3
	ROUNDS4(0x10, X12, X9, X10)
	SHA256MSG1 X12, X11
	ROUNDS4(0x20, X5, X1, X2)
	SHA256MSG1 X5, X4
	ROUNDS4(0x20, X13, X9, X10)
	SHA256MSG1 X13, X12
	QUAD(0x30, X6, X5, X3, X1, X2)
	QUAD(0x30, X14, X13, X11, X9, X10)
	QUAD(0x40, X3, X6, X4, X1, X2)
	QUAD(0x40, X11, X14, X12, X9, X10)
	QUAD(0x50, X4, X3, X5, X1, X2)
	QUAD(0x50, X12, X11, X13, X9, X10)
	QUAD(0x60, X5, X4, X6, X1, X2)
	QUAD(0x60, X13, X12, X14, X9, X10)
	QUAD(0x70, X6, X5, X3, X1, X2)
	QUAD(0x70, X14, X13, X11, X9, X10)
	QUAD(0x80, X3, X6, X4, X1, X2)
	QUAD(0x80, X11, X14, X12, X9, X10)
	QUAD(0x90, X4, X3, X5, X1, X2)
	QUAD(0x90, X12, X11, X13, X9, X10)
	QUAD(0xa0, X5, X4, X6, X1, X2)
	QUAD(0xa0, X13, X12, X14, X9, X10)
	QUAD(0xb0, X6, X5, X3, X1, X2)
	QUAD(0xb0, X14, X13, X11, X9, X10)
	QUAD(0xc0, X3, X6, X4, X1, X2)
	QUAD(0xc0, X11, X14, X12, X9, X10)
	ROUNDS4(0xd0, X4, X1, X2)
	SCHED(X4, X3, X5)
	ROUNDS4(0xd0, X12, X9, X10)
	SCHED(X12, X11, X13)
	ROUNDS4(0xe0, X5, X1, X2)
	SCHED(X5, X4, X6)
	ROUNDS4(0xe0, X13, X9, X10)
	SCHED(X13, X12, X14)
	ROUNDS4(0xf0, X6, X1, X2)
	ROUNDS4(0xf0, X14, X9, X10)
	FINISH(DI, X1, X2)
	FINISH(DX, X9, X10)
	RET

// func cpuid(leaf uint32) (eax, ebx, ecx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-20
	MOVL leaf+0(FP), AX
	XORL CX, CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	RET
