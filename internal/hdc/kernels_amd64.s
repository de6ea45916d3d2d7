// AVX2 and AVX-512 kernels for the carry-save accumulation cascade, the
// small-sign plane compare, and the packed Hamming inner loop.
//
// Contracts (see DESIGN.md §2b and dispatch.go):
//
//   - Every kernel processes exactly words [0, args.n) of its streams.
//     AVX2: args.n is a multiple of 4, and the remaining words —
//     including the masked final word of an unaligned dimension — are
//     the caller's portable loop's job. AVX-512: args.n is any word
//     count. Full groups of eight words run under an all-lanes opmask;
//     the group holding word n-1 runs once more round the same loop body
//     under the mask of its live words, and the XOR kernels AND word n-1
//     of every operand stream with args.tail (the valid bits of the
//     final word), so no portable word loop runs after them.
//   - AVX-512 loads are zero-masked and stores masked, so the final
//     group never reads or writes a word at or past n: faults on the
//     masked-off words are suppressed, and the neighbouring planes of a
//     slab are left alone.
//   - All loads and stores are unaligned (VMOVDQU/VMOVDQU64): operand
//     streams come from caller-owned slices with no alignment guarantee;
//     plane and lane slabs are word-aligned only.
//   - The cascades are bit-identical to csaXorBlock8Range in bitcount.go
//     and the small/sign variants in smallsign.go: same CSA tree shape,
//     same weight-16 overflow rule. Any change there must land here too;
//     the per-tier differential tests and FuzzBitCounter enforce it.
//   - Register budget (AVX2): Y0-Y3 plane state, Y4-Y5 operand loads,
//     Y6-Y11 cascade temporaries, Y12 s16, Y13 lane temp, Y14 byteStride,
//     Y15 xor/overflow temp. GP: DI args block, CX byte offset, SI byte
//     limit, R8-R15 the eight stream pointers, AX/BX scratch pointers
//     reloaded from the args block (there are not enough GP registers to
//     pin the twelve plane/lane pointers, and the reloads hit the same
//     hot cache line every iteration). The AVX-512 variants mirror this
//     allocation onto Z registers and collapse each 3:2 compressor into
//     a VPTERNLOGQ XOR3/majority pair; Z11, free there, holds the
//     operand mask (all ones, or the final group's live words with
//     args.tail in word n-1), and K2 the load/store opmask.
//   - All functions end with VZEROUPPER to avoid SSE/AVX transition
//     stalls in the surrounding Go code.

#include "textflag.h"

// csa(s, b, c): S <- sum, CARRY <- carry, TMP clobbered; B, C preserved.
#define CSA256(S, B, C, CARRY, TMP) \
	VPXOR	S, B, CARRY;           \
	VPAND	S, B, TMP;             \
	VPXOR	CARRY, C, S;           \
	VPAND	CARRY, C, CARRY;       \
	VPOR	TMP, CARRY, CARRY;

// VPTERNLOGQ imm 0x96 is XOR3, 0xE8 is majority; both are symmetric in
// their three operands, so the Go-assembler operand reversal is harmless.
#define CSA512(S, B, C, CARRY) \
	VMOVDQA64	S, CARRY;              \
	VPTERNLOGQ	$0x96, B, C, S;        \
	VPTERNLOGQ	$0xE8, B, C, CARRY;

// Load stream word group R, XOR the paired stream (args+BOFF) and the
// broadcast XNOR mask (args+VOFF) into DST.
#define XORLOAD256(R, BOFF, VOFF, DST) \
	VMOVDQU	(R)(CX*1), DST;        \
	MOVQ	BOFF(DI), BX;          \
	VPXOR	(BX)(CX*1), DST, DST;  \
	VPBROADCASTQ	VOFF(DI), Y15; \
	VPXOR	Y15, DST, DST;

// The AVX-512 form loads under K2 and folds the XNOR mask and the
// operand mask Z11 into one VPTERNLOGQ: 0x48 = (DST ^ v) & Z11.
#define XORLOAD512(R, BOFF, VOFF, DST) \
	VMOVDQU64.Z	(R)(CX*1), K2, DST;            \
	MOVQ	BOFF(DI), BX;                          \
	VPXORQ.Z	(BX)(CX*1), DST, K2, DST;      \
	VPTERNLOGQ.BCST	$0x48, VOFF(DI), Z11, DST;

// lane[OFF] += ((s16 >> SHIFT) & byteStride) << 4, with s16 in Y12/Z12
// and byteStride broadcast in Y14/Z14.
#define LANEADD256(SHIFT, OFF) \
	MOVQ	OFF(DI), AX;           \
	VPSRLQ	SHIFT, Y12, Y13;       \
	VPAND	Y14, Y13, Y13;         \
	VPSLLQ	$4, Y13, Y13;          \
	VPADDQ	(AX)(CX*1), Y13, Y13;  \
	VMOVDQU	Y13, (AX)(CX*1);

#define LANEADD512(SHIFT, OFF) \
	MOVQ	OFF(DI), AX;                   \
	VPSRLQ	SHIFT, Z12, Z13;               \
	VPANDQ	Z14, Z13, Z13;                 \
	VPSLLQ	$4, Z13, Z13;                  \
	VPADDQ.Z	(AX)(CX*1), Z13, K2, Z13;  \
	VMOVDQU64	Z13, K2, (AX)(CX*1);

// Weight-16 spill into the eight byte lanes (l0..l3 at +240.., h0..h3 at
// +272..), used between a VPTEST-guarded branch in the function bodies.
#define LANEADDS256 \
	LANEADD256($0, 240)            \
	LANEADD256($1, 248)            \
	LANEADD256($2, 256)            \
	LANEADD256($3, 264)            \
	LANEADD256($4, 272)            \
	LANEADD256($5, 280)            \
	LANEADD256($6, 288)            \
	LANEADD256($7, 296)

#define LANEADDS512 \
	LANEADD512($0, 240)            \
	LANEADD512($1, 248)            \
	LANEADD512($2, 256)            \
	LANEADD512($3, 264)            \
	LANEADD512($4, 272)            \
	LANEADD512($5, 280)            \
	LANEADD512($6, 288)            \
	LANEADD512($7, 296)

// Weight-16 spill into the sixteens/thirtytwos planes (the small-sign
// kernels): thirtytwos |= sixteens & s16; sixteens ^= s16.
#define SMALLSPILL256 \
	MOVQ	224(DI), AX;           \
	VMOVDQU	(AX)(CX*1), Y13;       \
	MOVQ	232(DI), BX;           \
	VPAND	Y13, Y12, Y15;         \
	VPOR	(BX)(CX*1), Y15, Y15;  \
	VMOVDQU	Y15, (BX)(CX*1);       \
	VPXOR	Y13, Y12, Y13;         \
	VMOVDQU	Y13, (AX)(CX*1);

#define SMALLSPILL512 \
	MOVQ	224(DI), AX;                   \
	VMOVDQU64.Z	(AX)(CX*1), K2, Z13;   \
	MOVQ	232(DI), BX;                   \
	VPANDQ	Z13, Z12, Z15;                 \
	VPORQ.Z	(BX)(CX*1), Z15, K2, Z15;      \
	VMOVDQU64	Z15, K2, (BX)(CX*1);   \
	VPXORQ	Z13, Z12, Z13;                 \
	VMOVDQU64	Z13, K2, (AX)(CX*1);

// Shared prologue for the CSA kernels: DI = args, R8-R15 = the eight
// stream pointers, SI = args.n (words).
#define CSAPROLOGUE \
	MOVQ	a+0(FP), DI;   \
	MOVQ	0(DI), R8;     \
	MOVQ	8(DI), R9;     \
	MOVQ	16(DI), R10;   \
	MOVQ	24(DI), R11;   \
	MOVQ	32(DI), R12;   \
	MOVQ	40(DI), R13;   \
	MOVQ	48(DI), R14;   \
	MOVQ	56(DI), R15;   \
	MOVQ	304(DI), SI;

// AVX2 loop bounds: SI = byte limit, CX = byte offset.
#define BYTELIMIT256 \
	SHLQ	$3, SI;        \
	XORQ	CX, CX;

// AVX-512 loop bounds from SI = n ≥ 1 words. The final group is the
// eight-word group holding word n-1; it has c = ((n-1) & 7) + 1 live
// words. Leaves SI = the final group's byte offset, CX = 0, K2 = all
// lanes (the full groups before it), K4 = its live lanes (1<<c)-1 and
// K3 = the lane of word n-1, 1<<(c-1). Clobbers AX.
#define FINALGROUP512 \
	LEAQ	-1(SI), CX;    \
	ANDQ	$7, CX;        \
	MOVL	$2, AX;        \
	SHLL	CX, AX;        \
	DECL	AX;            \
	KMOVW	AX, K4;        \
	MOVL	$1, AX;        \
	SHLL	CX, AX;        \
	KMOVW	AX, K3;        \
	DECQ	SI;            \
	ANDQ	$-8, SI;       \
	SHLQ	$3, SI;        \
	XORQ	CX, CX;        \
	KXNORW	K2, K2, K2;

// Load/store the four persistent planes for this word group.
#define LOADPLANES256 \
	MOVQ	192(DI), AX;           \
	VMOVDQU	(AX)(CX*1), Y0;        \
	MOVQ	200(DI), AX;           \
	VMOVDQU	(AX)(CX*1), Y1;        \
	MOVQ	208(DI), AX;           \
	VMOVDQU	(AX)(CX*1), Y2;        \
	MOVQ	216(DI), AX;           \
	VMOVDQU	(AX)(CX*1), Y3;

#define STOREPLANES256 \
	MOVQ	192(DI), AX;           \
	VMOVDQU	Y0, (AX)(CX*1);        \
	MOVQ	200(DI), AX;           \
	VMOVDQU	Y1, (AX)(CX*1);        \
	MOVQ	208(DI), AX;           \
	VMOVDQU	Y2, (AX)(CX*1);        \
	MOVQ	216(DI), AX;           \
	VMOVDQU	Y3, (AX)(CX*1);

#define LOADPLANES512 \
	MOVQ	192(DI), AX;                   \
	VMOVDQU64.Z	(AX)(CX*1), K2, Z0;    \
	MOVQ	200(DI), AX;                   \
	VMOVDQU64.Z	(AX)(CX*1), K2, Z1;    \
	MOVQ	208(DI), AX;                   \
	VMOVDQU64.Z	(AX)(CX*1), K2, Z2;    \
	MOVQ	216(DI), AX;                   \
	VMOVDQU64.Z	(AX)(CX*1), K2, Z3;

#define STOREPLANES512 \
	MOVQ	192(DI), AX;                   \
	VMOVDQU64	Z0, K2, (AX)(CX*1);    \
	MOVQ	200(DI), AX;                   \
	VMOVDQU64	Z1, K2, (AX)(CX*1);    \
	MOVQ	208(DI), AX;                   \
	VMOVDQU64	Z2, K2, (AX)(CX*1);    \
	MOVQ	216(DI), AX;                   \
	VMOVDQU64	Z3, K2, (AX)(CX*1);

// Entering the final group: K2 takes its live lanes, Z11 keeps all ones
// on them but word n-1, which gets args.tail, and zero beyond n.
#define FINALMASKS512 \
	KMOVW	K4, K2;                        \
	VPTERNLOGQ.Z	$0xFF, Z11, Z11, K2, Z11; \
	VPBROADCASTQ	312(DI), K3, Z11;

// The Harley-Seal cascade over the loaded planes: consumes the eight
// operand groups via the LOAD macros, leaves new ones/twos/fours in
// Y0-Y2 (Z0-Z2), the new eights in Y3 (Z3) and s16 in Y12 (Z12).
#define CASCADE256(LOAD01, LOAD23, LOAD45, LOAD67) \
	LOAD01                         \
	CSA256(Y0, Y4, Y5, Y6, Y7)     \
	LOAD23                         \
	CSA256(Y0, Y4, Y5, Y7, Y8)     \
	CSA256(Y1, Y6, Y7, Y8, Y9)     \
	LOAD45                         \
	CSA256(Y0, Y4, Y5, Y6, Y9)     \
	LOAD67                         \
	CSA256(Y0, Y4, Y5, Y7, Y9)     \
	CSA256(Y1, Y6, Y7, Y9, Y10)    \
	CSA256(Y2, Y8, Y9, Y10, Y11)   \
	VPAND	Y10, Y3, Y12;          \
	VPXOR	Y10, Y3, Y3;

#define CASCADE512(LOAD01, LOAD23, LOAD45, LOAD67) \
	LOAD01                         \
	CSA512(Z0, Z4, Z5, Z6)         \
	LOAD23                         \
	CSA512(Z0, Z4, Z5, Z7)         \
	CSA512(Z1, Z6, Z7, Z8)         \
	LOAD45                         \
	CSA512(Z0, Z4, Z5, Z6)         \
	LOAD67                         \
	CSA512(Z0, Z4, Z5, Z7)         \
	CSA512(Z1, Z6, Z7, Z9)         \
	CSA512(Z2, Z8, Z9, Z10)        \
	VPANDQ	Z10, Z3, Z12;          \
	VPXORQ	Z10, Z3, Z3;

#define XORLOADS256 \
	CASCADE256(XORLOAD256(R8, 64, 128, Y4) XORLOAD256(R9, 72, 136, Y5), XORLOAD256(R10, 80, 144, Y4) XORLOAD256(R11, 88, 152, Y5), XORLOAD256(R12, 96, 160, Y4) XORLOAD256(R13, 104, 168, Y5), XORLOAD256(R14, 112, 176, Y4) XORLOAD256(R15, 120, 184, Y5))

#define XORLOADS512 \
	CASCADE512(XORLOAD512(R8, 64, 128, Z4) XORLOAD512(R9, 72, 136, Z5), XORLOAD512(R10, 80, 144, Z4) XORLOAD512(R11, 88, 152, Z5), XORLOAD512(R12, 96, 160, Z4) XORLOAD512(R13, 104, 168, Z5), XORLOAD512(R14, 112, 176, Z4) XORLOAD512(R15, 120, 184, Z5))

// One ripple-compare step of the plane majority: plane word at args+OFF,
// constant mask broadcast in CM, carry in Y0/Z0, eq in Y1/Z1; zeroes the
// consumed plane word (Y15/Z15 holds zero).
#define SIGNPLANE256(OFF, CM) \
	MOVQ	OFF(DI), AX;           \
	VMOVDQU	(AX)(CX*1), Y2;        \
	VMOVDQU	Y15, (AX)(CX*1);       \
	VPXOR	CM, Y2, Y3;            \
	VPXOR	Y0, Y3, Y4;            \
	VPAND	Y4, Y1, Y1;            \
	VPAND	CM, Y2, Y4;            \
	VPAND	Y0, Y3, Y5;            \
	VPOR	Y5, Y4, Y0;

// 0x60 = a&(b^c): eq &= u^carry. 0xE8 = majority(p, cm, carry), which
// equals (p&cm)|((p^cm)&carry) — the ripple-carry update.
#define SIGNPLANE512(OFF, CM) \
	MOVQ	OFF(DI), AX;                   \
	VMOVDQU64.Z	(AX)(CX*1), K2, Z2;    \
	VMOVDQU64	Z15, K2, (AX)(CX*1);   \
	VPXORQ	CM, Z2, Z3;                    \
	VPTERNLOGQ	$0x60, Z0, Z3, Z1;     \
	VPTERNLOGQ	$0xE8, CM, Z2, Z0;

// func csaXorBlockAVX2(a *csaArgs)
TEXT ·csaXorBlockAVX2(SB), NOSPLIT, $0-8
	CSAPROLOGUE
	BYTELIMIT256
	MOVQ	$0x0101010101010101, AX
	MOVQ	AX, X14
	VPBROADCASTQ	X14, Y14
	TESTQ	SI, SI
	JZ	done
loop:
	LOADPLANES256
	XORLOADS256
	STOREPLANES256
	VPTEST	Y12, Y12
	JZ	next
	LANEADDS256
next:
	ADDQ	$32, CX
	CMPQ	CX, SI
	JB	loop
done:
	VZEROUPPER
	RET

// func csaXorSmallBlockAVX2(a *csaArgs)
TEXT ·csaXorSmallBlockAVX2(SB), NOSPLIT, $0-8
	CSAPROLOGUE
	BYTELIMIT256
	TESTQ	SI, SI
	JZ	done
loop:
	LOADPLANES256
	XORLOADS256
	STOREPLANES256
	VPTEST	Y12, Y12
	JZ	next
	SMALLSPILL256
next:
	ADDQ	$32, CX
	CMPQ	CX, SI
	JB	loop
done:
	VZEROUPPER
	RET

// func signPlanesAVX2(a *csaArgs)
TEXT ·signPlanesAVX2(SB), NOSPLIT, $0-8
	MOVQ	a+0(FP), DI
	MOVQ	304(DI), SI
	SHLQ	$3, SI
	XORQ	CX, CX
	VPBROADCASTQ	128(DI), Y8    // cm[0]
	VPBROADCASTQ	136(DI), Y9    // cm[1]
	VPBROADCASTQ	144(DI), Y10   // cm[2]
	VPBROADCASTQ	152(DI), Y11   // cm[3]
	VPBROADCASTQ	160(DI), Y12   // cm[4]
	VPBROADCASTQ	168(DI), Y13   // cm[5]
	VPBROADCASTQ	176(DI), Y14   // tie mask: ~0 for even n, 0 for odd
	VPXOR	Y15, Y15, Y15
	MOVQ	0(DI), BX              // tie vector
	MOVQ	64(DI), DX             // dst vector
	TESTQ	SI, SI
	JZ	done
loop:
	VPXOR	Y0, Y0, Y0             // carry
	VPCMPEQD	Y1, Y1, Y1     // eq (all ones)
	SIGNPLANE256(192, Y8)
	SIGNPLANE256(200, Y9)
	SIGNPLANE256(208, Y10)
	SIGNPLANE256(216, Y11)
	SIGNPLANE256(224, Y12)
	SIGNPLANE256(232, Y13)
	VPAND	(BX)(CX*1), Y1, Y1     // eq &= tie
	VPAND	Y14, Y1, Y1            // ... only for even n
	VPOR	Y1, Y0, Y0
	VMOVDQU	Y0, (DX)(CX*1)
	ADDQ	$32, CX
	CMPQ	CX, SI
	JB	loop
done:
	VZEROUPPER
	RET

// PSHUFB nibble-popcount table and low-nibble mask for hammingAVX2.
DATA popcntLUT<>+0(SB)/8, $0x0302020102010100
DATA popcntLUT<>+8(SB)/8, $0x0403030203020201
DATA popcntLUT<>+16(SB)/8, $0x0302020102010100
DATA popcntLUT<>+24(SB)/8, $0x0403030203020201
GLOBL popcntLUT<>(SB), RODATA|NOPTR, $32

DATA popcntMask<>+0(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA popcntMask<>+8(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA popcntMask<>+16(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA popcntMask<>+24(SB)/8, $0x0f0f0f0f0f0f0f0f
GLOBL popcntMask<>(SB), RODATA|NOPTR, $32

// func hammingAVX2(a, b *uint64, n int64) int64
TEXT ·hammingAVX2(SB), NOSPLIT, $0-32
	MOVQ	a+0(FP), R8
	MOVQ	b+8(FP), R9
	MOVQ	n+16(FP), SI
	SHLQ	$3, SI
	XORQ	CX, CX
	VMOVDQU	popcntLUT<>(SB), Y6
	VMOVDQU	popcntMask<>(SB), Y7
	VPXOR	Y8, Y8, Y8
	VPXOR	Y0, Y0, Y0
	TESTQ	SI, SI
	JZ	done
loop:
	VMOVDQU	(R8)(CX*1), Y1
	VPXOR	(R9)(CX*1), Y1, Y1
	VPAND	Y7, Y1, Y2             // low nibbles
	VPSRLW	$4, Y1, Y3
	VPAND	Y7, Y3, Y3             // high nibbles
	VPSHUFB	Y2, Y6, Y4
	VPSHUFB	Y3, Y6, Y5
	VPADDB	Y5, Y4, Y4             // per-byte popcounts
	VPSADBW	Y8, Y4, Y4             // horizontal add to 4 qwords
	VPADDQ	Y4, Y0, Y0
	ADDQ	$32, CX
	CMPQ	CX, SI
	JB	loop
done:
	VEXTRACTI128	$1, Y0, X1
	VPADDQ	X1, X0, X0
	VPSRLDQ	$8, X0, X1
	VPADDQ	X1, X0, X0
	VZEROUPPER
	MOVQ	X0, AX
	MOVQ	AX, ret+24(FP)
	RET

// The AVX-512 kernels share one loop shape: the full groups run under
// K2 = all lanes; when CX reaches SI (the final group's offset),
// FINALMASKS512 narrows the masks and the loop body runs once more, after
// which CX > SI ends it.

// func csaXorBlockAVX512(a *csaArgs)
TEXT ·csaXorBlockAVX512(SB), NOSPLIT, $0-8
	CSAPROLOGUE
	MOVQ	$0x0101010101010101, AX
	MOVQ	AX, X14
	VPBROADCASTQ	X14, Z14
	TESTQ	SI, SI
	JZ	done
	FINALGROUP512
	VPTERNLOGQ	$0xFF, Z11, Z11, Z11
	CMPQ	CX, SI
	JEQ	final
loop:
	LOADPLANES512
	XORLOADS512
	STOREPLANES512
	VPTESTMQ	Z12, Z12, K1
	KORTESTB	K1, K1
	JZ	next
	LANEADDS512
next:
	ADDQ	$64, CX
	CMPQ	CX, SI
	JB	loop
	JA	done
final:
	FINALMASKS512
	JMP	loop
done:
	VZEROUPPER
	RET

// func csaXorSmallBlockAVX512(a *csaArgs)
TEXT ·csaXorSmallBlockAVX512(SB), NOSPLIT, $0-8
	CSAPROLOGUE
	TESTQ	SI, SI
	JZ	done
	FINALGROUP512
	VPTERNLOGQ	$0xFF, Z11, Z11, Z11
	CMPQ	CX, SI
	JEQ	final
loop:
	LOADPLANES512
	XORLOADS512
	STOREPLANES512
	VPTESTMQ	Z12, Z12, K1
	KORTESTB	K1, K1
	JZ	next
	SMALLSPILL512
next:
	ADDQ	$64, CX
	CMPQ	CX, SI
	JB	loop
	JA	done
final:
	FINALMASKS512
	JMP	loop
done:
	VZEROUPPER
	RET

// func signPlanesAVX512(a *csaArgs)
//
// The plane compare needs no operand mask: planes are zero past the
// dimension, and a zero count never reaches the threshold or (for even
// n ≥ 2) the tie value, so dst's bits past d come out zero.
TEXT ·signPlanesAVX512(SB), NOSPLIT, $0-8
	MOVQ	a+0(FP), DI
	MOVQ	304(DI), SI
	VPBROADCASTQ	128(DI), Z8    // cm[0]
	VPBROADCASTQ	136(DI), Z9    // cm[1]
	VPBROADCASTQ	144(DI), Z10   // cm[2]
	VPBROADCASTQ	152(DI), Z11   // cm[3]
	VPBROADCASTQ	160(DI), Z12   // cm[4]
	VPBROADCASTQ	168(DI), Z13   // cm[5]
	VPBROADCASTQ	176(DI), Z14   // tie mask: ~0 for even n, 0 for odd
	VPXORQ	Z15, Z15, Z15
	MOVQ	0(DI), BX              // tie vector
	MOVQ	64(DI), DX             // dst vector
	TESTQ	SI, SI
	JZ	done
	FINALGROUP512
	CMPQ	CX, SI
	JEQ	final
loop:
	VPXORQ	Z0, Z0, Z0                     // carry
	VPTERNLOGQ	$0xFF, Z1, Z1, Z1      // eq (all ones)
	SIGNPLANE512(192, Z8)
	SIGNPLANE512(200, Z9)
	SIGNPLANE512(208, Z10)
	SIGNPLANE512(216, Z11)
	SIGNPLANE512(224, Z12)
	SIGNPLANE512(232, Z13)
	VMOVDQU64.Z	(BX)(CX*1), K2, Z2
	VPTERNLOGQ	$0x80, Z14, Z2, Z1     // eq &= tie & tieMask
	VPORQ	Z1, Z0, Z0
	VMOVDQU64	Z0, K2, (DX)(CX*1)
	ADDQ	$64, CX
	CMPQ	CX, SI
	JB	loop
	JA	done
final:
	KMOVW	K4, K2
	JMP	loop
done:
	VZEROUPPER
	RET

// func hammingAVX512(a, b *uint64, n int64) int64
//
// Canonical vectors hold zeros past the dimension, so the final group
// needs only the load mask.
TEXT ·hammingAVX512(SB), NOSPLIT, $0-32
	MOVQ	a+0(FP), R8
	MOVQ	b+8(FP), R9
	MOVQ	n+16(FP), SI
	VPXORQ	Z0, Z0, Z0
	TESTQ	SI, SI
	JZ	done
	FINALGROUP512
	CMPQ	CX, SI
	JEQ	final
loop:
	VMOVDQU64.Z	(R8)(CX*1), K2, Z1
	VPXORQ.Z	(R9)(CX*1), Z1, K2, Z1
	VPOPCNTQ	Z1, Z1
	VPADDQ	Z1, Z0, Z0
	ADDQ	$64, CX
	CMPQ	CX, SI
	JB	loop
	JA	done
final:
	KMOVW	K4, K2
	JMP	loop
done:
	VEXTRACTI64X4	$1, Z0, Y1
	VPADDQ	Y1, Y0, Y0
	VEXTRACTI128	$1, Y0, X1
	VPADDQ	X1, X0, X0
	VPSRLDQ	$8, X0, X1
	VPADDQ	X1, X0, X0
	VZEROUPPER
	MOVQ	X0, AX
	MOVQ	AX, ret+24(FP)
	RET
