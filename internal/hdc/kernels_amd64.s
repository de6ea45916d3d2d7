// AVX2 and AVX-512 kernels for the carry-save accumulation cascade, the
// one-sweep small sign, the packed Hamming inner loop, and the rank count
// and PageRank power loop of small graphs.
//
// Contracts (see DESIGN.md §2b and dispatch.go):
//
//   - Operands come by key from a slab: a key's high and low 32 bits are
//     the word offsets of two rows, and the operand is their XOR. Rows
//     are padded with zero words to the slab stride, a whole number of
//     eight-word groups, and the Go callers check every key's rows lie
//     inside the slab, so a kernel loads whole groups of any row without
//     masking.
//   - csaXorBlock processes words [0, args.n), args.n the stride: the
//     counter's planes and lanes are padded to it too, and their padding
//     words, fed only zero padding, stay zero. No portable loop follows.
//   - signSmall writes words [0, args.n) of a d/64-word dst. AVX2: args.n
//     is a multiple of 4 and the remaining words are the caller's
//     portable loop's job. AVX-512: args.n is any word count; the group
//     holding word n-1 runs once more round the same loop body with its
//     tie load and dst store under the opmask of its live words, so no
//     word at or past n is touched. The caller clears the bits past d.
//   - All loads and stores are unaligned (VMOVDQU/VMOVDQU64): slabs and
//     vectors are word-aligned only.
//   - The cascades are bit-identical to csaXorBlock8 in bitcount.go and
//     signSmallRange in smallsign.go: same CSA tree shape, same weight-16
//     overflow rule, same complemented ripple compare. Any change there
//     must land here too; the per-tier differential tests and
//     FuzzBitCounter enforce it.
//   - Register budget, csaXorBlock (AVX2): Y0-Y3 plane state, Y4-Y5
//     operand loads, Y6-Y11 cascade temporaries, Y12 s16, Y13 lane temp,
//     Y14 byteStride. GP: DI args block (its key table at +0, so R11 =
//     DI), CX byte offset, SI byte limit, R13 the slab, R12 the slab at
//     the current word group, AX/BX the two row offsets of a key and then
//     the plane/lane pointers reloaded from the args block (the reloads
//     hit the same hot cache line every iteration). The AVX-512 variant
//     mirrors this allocation onto Z registers and collapses each 3:2
//     compressor into a VPTERNLOGQ XOR3/majority pair.
//   - Register budget, signSmall: the six planes never leave registers
//     while a word group runs through every block of the key table. AVX2
//     uses all sixteen: Y0-Y3 and Y13-Y14 the planes of weight 1 to 32,
//     Y4-Y5 operand loads, Y6-Y11 cascade temporaries, Y12 s16, Y15 a
//     temporary; the compare reuses Y4-Y10 once the blocks are done and
//     broadcasts its constants per group. AVX-512 keeps the same planes
//     in Z0-Z3 and Z13-Z14 and pins the compare constants in Z16-Z22 for
//     the whole call. GP: DI args block, CX word byte offset, R11 the
//     current block's keys, R10 the table's end, R13/R12 the slab as in
//     csaXorBlock, R8/R9 tie and dst, AX/BX a key's row offsets.
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

// Load the word group at R12 of the two rows keyed at OFF(R11) and XOR
// them into DST.
#define KEYLOAD256(OFF, DST) \
	MOVQ	OFF(R11), AX;          \
	MOVL	AX, BX;                \
	SHRQ	$32, AX;               \
	VMOVDQU	(R12)(AX*8), DST;      \
	VPXOR	(R12)(BX*8), DST, DST;

#define KEYLOAD512(OFF, DST) \
	MOVQ	OFF(R11), AX;              \
	MOVL	AX, BX;                    \
	SHRQ	$32, AX;                   \
	VMOVDQU64	(R12)(AX*8), DST;      \
	VPXORQ	(R12)(BX*8), DST, DST;

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
	MOVQ	OFF(DI), AX;           \
	VPSRLQ	SHIFT, Z12, Z13;       \
	VPANDQ	Z14, Z13, Z13;         \
	VPSLLQ	$4, Z13, Z13;          \
	VPADDQ	(AX)(CX*1), Z13, Z13;  \
	VMOVDQU64	Z13, (AX)(CX*1);

// Weight-16 spill into the eight byte lanes (l0..l3 at +104.., h0..h3 at
// +136..), used behind a test-guarded branch in the function bodies.
#define LANEADDS256 \
	LANEADD256($0, 104)            \
	LANEADD256($1, 112)            \
	LANEADD256($2, 120)            \
	LANEADD256($3, 128)            \
	LANEADD256($4, 136)            \
	LANEADD256($5, 144)            \
	LANEADD256($6, 152)            \
	LANEADD256($7, 160)

#define LANEADDS512 \
	LANEADD512($0, 104)            \
	LANEADD512($1, 112)            \
	LANEADD512($2, 120)            \
	LANEADD512($3, 128)            \
	LANEADD512($4, 136)            \
	LANEADD512($5, 144)            \
	LANEADD512($6, 152)            \
	LANEADD512($7, 160)

// Shared prologue for the CSA kernels: DI = args and R11 = its key
// table, R13 = the slab, SI = the byte limit, CX = 0.
#define CSAPROLOGUE \
	MOVQ	a+0(FP), DI;   \
	MOVQ	DI, R11;       \
	MOVQ	64(DI), R13;   \
	MOVQ	168(DI), SI;   \
	SHLQ	$3, SI;        \
	XORQ	CX, CX;

// AVX-512 loop bounds from SI = n ≥ 1 words. The final group is the
// eight-word group holding word n-1; it has c = ((n-1) & 7) + 1 live
// words. Leaves SI = the final group's byte offset, CX = 0, K2 = all
// lanes (the full groups before it) and K4 = its live lanes (1<<c)-1.
// Clobbers AX.
#define FINALGROUP512 \
	LEAQ	-1(SI), CX;    \
	ANDQ	$7, CX;        \
	MOVL	$2, AX;        \
	SHLL	CX, AX;        \
	DECL	AX;            \
	KMOVW	AX, K4;        \
	DECQ	SI;            \
	ANDQ	$-8, SI;       \
	SHLQ	$3, SI;        \
	XORQ	CX, CX;        \
	KXNORW	K2, K2, K2;

// Load/store the four persistent planes for this word group.
#define LOADPLANES256 \
	MOVQ	72(DI), AX;            \
	VMOVDQU	(AX)(CX*1), Y0;        \
	MOVQ	80(DI), AX;            \
	VMOVDQU	(AX)(CX*1), Y1;        \
	MOVQ	88(DI), AX;            \
	VMOVDQU	(AX)(CX*1), Y2;        \
	MOVQ	96(DI), AX;            \
	VMOVDQU	(AX)(CX*1), Y3;

#define STOREPLANES256 \
	MOVQ	72(DI), AX;            \
	VMOVDQU	Y0, (AX)(CX*1);        \
	MOVQ	80(DI), AX;            \
	VMOVDQU	Y1, (AX)(CX*1);        \
	MOVQ	88(DI), AX;            \
	VMOVDQU	Y2, (AX)(CX*1);        \
	MOVQ	96(DI), AX;            \
	VMOVDQU	Y3, (AX)(CX*1);

#define LOADPLANES512 \
	MOVQ	72(DI), AX;                \
	VMOVDQU64	(AX)(CX*1), Z0;    \
	MOVQ	80(DI), AX;                \
	VMOVDQU64	(AX)(CX*1), Z1;    \
	MOVQ	88(DI), AX;                \
	VMOVDQU64	(AX)(CX*1), Z2;    \
	MOVQ	96(DI), AX;                \
	VMOVDQU64	(AX)(CX*1), Z3;

#define STOREPLANES512 \
	MOVQ	72(DI), AX;                \
	VMOVDQU64	Z0, (AX)(CX*1);    \
	MOVQ	80(DI), AX;                \
	VMOVDQU64	Z1, (AX)(CX*1);    \
	MOVQ	88(DI), AX;                \
	VMOVDQU64	Z2, (AX)(CX*1);    \
	MOVQ	96(DI), AX;                \
	VMOVDQU64	Z3, (AX)(CX*1);

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

// The eight keys of the block at R11, at the word group at R12.
#define KEYLOADS256 \
	CASCADE256(KEYLOAD256(0, Y4) KEYLOAD256(8, Y5), KEYLOAD256(16, Y4) KEYLOAD256(24, Y5), KEYLOAD256(32, Y4) KEYLOAD256(40, Y5), KEYLOAD256(48, Y4) KEYLOAD256(56, Y5))

#define KEYLOADS512 \
	CASCADE512(KEYLOAD512(0, Z4) KEYLOAD512(8, Z5), KEYLOAD512(16, Z4) KEYLOAD512(24, Z5), KEYLOAD512(32, Z4) KEYLOAD512(40, Z5), KEYLOAD512(48, Z4) KEYLOAD512(56, Z5))

// One step of the majority's bit-sliced ripple compare: plane P plus the
// constant mask (broadcast from args+CMOFF into Y4), carry in Y6, eq —
// the AND of the sum bits — in Y7. smallArgs offsets: slab +512, tie
// +520, dst +528, cm[0..5] +536.., even +584, blocks +592, n +600.
#define RIPPLE256(P, CMOFF) \
	VPBROADCASTQ	CMOFF(DI), Y4; \
	VPXOR	Y4, P, Y5;             \
	VPXOR	Y6, Y5, Y8;            \
	VPAND	Y8, Y7, Y7;            \
	VPAND	Y4, P, Y9;             \
	VPAND	Y6, Y5, Y10;           \
	VPOR	Y10, Y9, Y6;

// The same step with the constant pinned in CM, carry in Z24, eq in Z25.
// 0x60 = a&(b^c): eq &= u^carry. 0xE8 = majority(p, cm, carry), which
// equals (p&cm)|((p^cm)&carry) — the ripple-carry update.
#define RIPPLE512(P, CM) \
	VPXORQ	CM, P, Z26;                \
	VPTERNLOGQ	$0x60, Z24, Z26, Z25; \
	VPTERNLOGQ	$0xE8, CM, P, Z24;

// func csaXorBlockAVX2(a *csaArgs)
TEXT ·csaXorBlockAVX2(SB), NOSPLIT, $0-8
	CSAPROLOGUE
	MOVQ	$0x0101010101010101, AX
	MOVQ	AX, X14
	VPBROADCASTQ	X14, Y14
loop:
	LEAQ	(R13)(CX*1), R12
	LOADPLANES256
	KEYLOADS256
	STOREPLANES256
	VPTEST	Y12, Y12
	JZ	next
	LANEADDS256
next:
	ADDQ	$32, CX
	CMPQ	CX, SI
	JB	loop
	VZEROUPPER
	RET

// func signSmallAVX2(a *smallArgs)
TEXT ·signSmallAVX2(SB), NOSPLIT, $0-8
	MOVQ	a+0(FP), DI
	MOVQ	600(DI), SI
	SHLQ	$3, SI                 // byte limit
	XORQ	CX, CX
	MOVQ	512(DI), R13           // slab
	MOVQ	520(DI), R8            // tie
	MOVQ	528(DI), R9            // dst
	MOVQ	592(DI), R10
	SHLQ	$6, R10
	ADDQ	DI, R10                // end of the table's blocks
	TESTQ	SI, SI
	JZ	done
group:
	VPXOR	Y0, Y0, Y0
	VPXOR	Y1, Y1, Y1
	VPXOR	Y2, Y2, Y2
	VPXOR	Y3, Y3, Y3
	VPXOR	Y13, Y13, Y13
	VPXOR	Y14, Y14, Y14
	LEAQ	(R13)(CX*1), R12
	MOVQ	DI, R11
block:
	KEYLOADS256
	VPAND	Y13, Y12, Y15          // thirtytwos |= sixteens & s16
	VPOR	Y15, Y14, Y14
	VPXOR	Y12, Y13, Y13          // sixteens ^= s16
	ADDQ	$64, R11
	CMPQ	R11, R10
	JB	block
	VPBROADCASTQ	536(DI), Y4    // cm[0]; the first step has no carry in
	VPXOR	Y4, Y0, Y7
	VPAND	Y4, Y0, Y6
	RIPPLE256(Y1, 544)
	RIPPLE256(Y2, 552)
	RIPPLE256(Y3, 560)
	RIPPLE256(Y13, 568)
	RIPPLE256(Y14, 576)
	VPBROADCASTQ	584(DI), Y4    // even
	VPAND	Y4, Y7, Y7             // ties = eq & even
	VPOR	Y7, Y6, Y6             // carry | ties
	VPAND	(R8)(CX*1), Y7, Y7     // ties & tie
	VPANDN	Y6, Y7, Y6             // (carry | ties) &^ (ties & tie)
	VPCMPEQQ	Y4, Y4, Y4
	VPXOR	Y4, Y6, Y6             // dst = ^(carry | ties) | (ties & tie)
	VMOVDQU	Y6, (R9)(CX*1)
	ADDQ	$32, CX
	CMPQ	CX, SI
	JB	group
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

// The AVX-512 kernels over a dst or a stream of n words share one loop
// shape: the full groups run under K2 = all lanes; when CX reaches SI
// (the final group's offset), K2 takes the final group's live lanes and
// the loop body runs once more, after which CX > SI ends it.

// func csaXorBlockAVX512(a *csaArgs)
TEXT ·csaXorBlockAVX512(SB), NOSPLIT, $0-8
	CSAPROLOGUE
	MOVQ	$0x0101010101010101, AX
	MOVQ	AX, X14
	VPBROADCASTQ	X14, Z14
loop:
	LEAQ	(R13)(CX*1), R12
	LOADPLANES512
	KEYLOADS512
	STOREPLANES512
	VPTESTMQ	Z12, Z12, K1
	KORTESTB	K1, K1
	JZ	next
	LANEADDS512
next:
	ADDQ	$64, CX
	CMPQ	CX, SI
	JB	loop
	VZEROUPPER
	RET

// func signSmallAVX512(a *smallArgs)
TEXT ·signSmallAVX512(SB), NOSPLIT, $0-8
	MOVQ	a+0(FP), DI
	MOVQ	600(DI), SI
	VPBROADCASTQ	536(DI), Z16   // cm[0]
	VPBROADCASTQ	544(DI), Z17   // cm[1]
	VPBROADCASTQ	552(DI), Z18   // cm[2]
	VPBROADCASTQ	560(DI), Z19   // cm[3]
	VPBROADCASTQ	568(DI), Z20   // cm[4]
	VPBROADCASTQ	576(DI), Z21   // cm[5]
	VPBROADCASTQ	584(DI), Z22   // even
	MOVQ	512(DI), R13           // slab
	MOVQ	520(DI), R8            // tie
	MOVQ	528(DI), R9            // dst
	MOVQ	592(DI), R10
	SHLQ	$6, R10
	ADDQ	DI, R10                // end of the table's blocks
	TESTQ	SI, SI
	JZ	done
	FINALGROUP512
	CMPQ	CX, SI
	JEQ	final
group:
	VPXORQ	Z0, Z0, Z0
	VPXORQ	Z1, Z1, Z1
	VPXORQ	Z2, Z2, Z2
	VPXORQ	Z3, Z3, Z3
	VPXORQ	Z13, Z13, Z13
	VPXORQ	Z14, Z14, Z14
	LEAQ	(R13)(CX*1), R12
	MOVQ	DI, R11
block:
	KEYLOADS512
	VPTERNLOGQ	$0xF8, Z12, Z13, Z14   // thirtytwos |= sixteens & s16
	VPXORQ	Z12, Z13, Z13                  // sixteens ^= s16
	ADDQ	$64, R11
	CMPQ	R11, R10
	JB	block
	VPXORQ	Z16, Z0, Z25           // the first step has no carry in
	VPANDQ	Z16, Z0, Z24
	RIPPLE512(Z1, Z17)
	RIPPLE512(Z2, Z18)
	RIPPLE512(Z3, Z19)
	RIPPLE512(Z13, Z20)
	RIPPLE512(Z14, Z21)
	VPANDQ	Z22, Z25, Z25                  // ties = eq & even
	VMOVDQU64.Z	(R8)(CX*1), K2, Z26
	VPTERNLOGQ	$0x8B, Z26, Z25, Z24   // dst = ties ? tie : ^carry
	VMOVDQU64	Z24, K2, (R9)(CX*1)
	ADDQ	$64, CX
	CMPQ	CX, SI
	JB	group
	JA	done
final:
	KMOVW	K4, K2
	JMP	group
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

// Even and odd qword indices: VPERMI2Q of two registers of four
// interleaved (score, tie) keys gathers their eight scores or ties.
DATA rankPerm<>+0(SB)/8, $0
DATA rankPerm<>+8(SB)/8, $2
DATA rankPerm<>+16(SB)/8, $4
DATA rankPerm<>+24(SB)/8, $6
DATA rankPerm<>+32(SB)/8, $8
DATA rankPerm<>+40(SB)/8, $10
DATA rankPerm<>+48(SB)/8, $12
DATA rankPerm<>+56(SB)/8, $14
DATA rankPerm<>+64(SB)/8, $1
DATA rankPerm<>+72(SB)/8, $3
DATA rankPerm<>+80(SB)/8, $5
DATA rankPerm<>+88(SB)/8, $7
DATA rankPerm<>+96(SB)/8, $9
DATA rankPerm<>+104(SB)/8, $11
DATA rankPerm<>+112(SB)/8, $13
DATA rankPerm<>+120(SB)/8, $15
GLOBL rankPerm<>(SB), RODATA|NOPTR, $128

// func rankCountAVX512(keys *RankKey, n int64, dst *int) bool
//
// For each block of eight keys (the lanes), every key u of the graph is
// compared against all eight at once with its score and tie broadcast
// from memory, and each lane whose key u sorts before adds one to its
// count: lane score < u's score, or equal scores and lane tie > u's tie
// (RankKey.Less with the operands swapped). The keys are read in whole
// blocks of eight — the caller guarantees the capacity — and the counts
// stored under the mask of the live lanes. A NaN score in a live lane
// returns false before anything of its block is stored.
TEXT ·rankCountAVX512(SB), NOSPLIT, $0-25
	MOVQ	keys+0(FP), SI
	MOVQ	n+8(FP), DX
	MOVQ	dst+16(FP), DI
	VMOVDQU64	rankPerm<>+0(SB), Z30
	VMOVDQU64	rankPerm<>+64(SB), Z31
	MOVQ	$1, AX
	VPBROADCASTQ	AX, Z29
	MOVQ	DX, R11
	SHLQ	$4, R11
	ADDQ	SI, R11                // end of the keys
	MOVQ	SI, R8                 // the lane block's first key
	MOVQ	DX, R10                // keys from the lane block on
lanes:
	MOVQ	$8, CX
	CMPQ	R10, CX
	CMOVQLT	R10, CX
	MOVL	$1, AX
	SHLL	CX, AX
	DECL	AX
	KMOVW	AX, K7                 // the block's live lanes
	VMOVDQU64	(R8), Z0
	VMOVDQU64	64(R8), Z1
	VMOVDQA64	Z30, Z2
	VPERMI2Q	Z1, Z0, Z2             // scores
	VMOVDQA64	Z31, Z3
	VPERMI2Q	Z1, Z0, Z3             // ties
	VCMPPD	$3, Z2, Z2, K7, K1     // UNORD_Q: a NaN score
	KORTESTW	K1, K1
	JNZ	unordered
	VPXORQ	Z4, Z4, Z4
	MOVQ	SI, AX
count:
	VCMPPD.BCST	$0x11, (AX), Z2, K1    // LT_OQ
	VCMPPD.BCST	$0x00, (AX), Z2, K2    // EQ_OQ
	VPCMPUQ.BCST	$6, 8(AX), Z3, K2, K2  // NLE: greater, where the scores are equal
	KORW	K1, K2, K1
	VPADDQ	Z29, Z4, K1, Z4
	ADDQ	$16, AX
	CMPQ	AX, R11
	JB	count
	VMOVDQU64	Z4, K7, (DI)
	ADDQ	$128, R8
	ADDQ	$64, DI
	SUBQ	$8, R10
	JG	lanes
	MOVB	$1, ret+24(FP)
	VZEROUPPER
	RET
unordered:
	MOVB	$0, ret+24(FP)
	VZEROUPPER
	RET

// The pageRank kernel (func pageRankAVX512 below) keeps its work area in
// its own stack frame, at R8, the frame's first 64-byte boundary:
//
//   [0, 512)     the 64 neighbour masks during the set-up; then the
//                current scores, stored for the dangling sum and the
//                final copy to dst
//   [512, 5120)  PageRankMaxDegree rounds of 576 bytes. Round k holds the
//                index of every lane's k-th neighbour, blocks 0–7 at +0
//                (64 bytes a block), stored minus 64 so that bit 63
//                marks the lanes that have one; then one mask byte a
//                block of index bit 4 (+512) and of index bit 5 (+520)
//   5120         inv = 1/n
//   5128         c1 = (1−d)·inv
//   5136         the iteration's base
//
// Registers while iterating: Z0-Z3 lookup temporaries, Z8-Z15 the
// shares cur·d/deg of blocks 0–7, Z16-Z23 the next scores (the current
// ones between iterations), Z24-Z31 d/deg. During the set-up Z8-Z15 hold
// the neighbour masks M, Z0 is a temporary, Z1 64, Z2 the table d/1 …
// d/8, Z3 all ones, Z4 zero, Z5 the running largest degree, Z6 16 and
// Z7 32.
// GP: DX n, R8 the work area, R9 the dangling mask, R10 the rounds (the
// largest degree), SI the share-register pairs P = ⌈n/16⌉, DI the blocks
// ⌈n/8⌉, R11 a round's data, R12 rounds left, R13 iterations left.

// PRDEG(off, shift, M, D) loads the masks of one block of eight
// vertices into M and sets D = d/deg, zero where the degree is 0, by
// indexing the d/k table with deg − 1. The degree joins the running
// largest, and the lanes of nonzero degree join R9 at bit shift.
#define PRDEG(off, shift, M, D) \
	VMOVDQA64	off(R8), M;    \
	VPOPCNTQ	M, Z0;         \
	VPMAXUQ	Z0, Z5, Z5;        \
	VPTESTMQ	Z0, Z0, K1;    \
	VPADDQ	Z3, Z0, Z0;        \
	VPERMPD.Z	Z2, Z0, K1, D; \
	KMOVB	K1, AX;            \
	SHLQ	$shift, AX;        \
	ORQ	AX, R9;

// PRROUND(off, b4, b5, M) takes each lane's lowest remaining neighbour
// out of M — its index is popcount((M & −M) − 1) — and stores the index
// minus 64 at off(R11), with the mask bytes of index bit 4 (b4) and of
// index bit 5 (b5). The subtraction keeps the index's low six bits and
// sets bit 63, which VPMOVQ2M reads back as the lane's add mask, exactly
// where the lane had a neighbour: a lane with none left counts 64, and
// its word is 0. Stripping the lowest bit each round hands every vertex
// its neighbours in ascending order.
#define PRROUND(off, b4, b5, M) \
	VPSUBQ	M, Z4, Z0;         \
	VPANDQ	M, Z0, Z0;         \
	VPXORQ	Z0, M, M;          \
	VPADDQ	Z3, Z0, Z0;        \
	VPOPCNTQ	Z0, Z0;        \
	VPTESTMQ	Z6, Z0, K2;    \
	VPTESTMQ	Z7, Z0, K3;    \
	VPSUBQ	Z1, Z0, Z0;        \
	VMOVDQA64	Z0, off(R11);  \
	KMOVB	K2, b4(R11);       \
	KMOVB	K3, b5(R11);

// PULLp(off, b4, b5, N) looks up one round's neighbour shares of a
// block in the first p pairs of share registers — one VPERMI2PD a pair
// of 16 vertices, blended on index bits 4 and 5 — and adds them to the
// block's next scores N in the lanes that have a neighbour this round
// (bit 63 of the stored index).
#define PULL1(off, b4, b5, N) \
	VMOVDQA64	off(R11), Z0;    \
	VPMOVQ2M	Z0, K1;          \
	VPERMI2PD	Z9, Z8, Z0;      \
	VADDPD	Z0, N, K1, N;

#define PULL2(off, b4, b5, N) \
	VMOVDQA64	off(R11), Z0;    \
	VMOVDQA64	off(R11), Z1;    \
	KMOVB	b4(R11), K2;         \
	VPMOVQ2M	Z0, K1;          \
	VPERMI2PD	Z9, Z8, Z0;      \
	VPERMI2PD	Z11, Z10, Z1;    \
	VBLENDMPD	Z1, Z0, K2, Z0;  \
	VADDPD	Z0, N, K1, N;

#define PULL3(off, b4, b5, N) \
	VMOVDQA64	off(R11), Z0;    \
	VMOVDQA64	off(R11), Z1;    \
	VMOVDQA64	off(R11), Z2;    \
	KMOVB	b4(R11), K2;         \
	KMOVB	b5(R11), K3;         \
	VPMOVQ2M	Z0, K1;          \
	VPERMI2PD	Z9, Z8, Z0;      \
	VPERMI2PD	Z11, Z10, Z1;    \
	VPERMI2PD	Z13, Z12, Z2;    \
	VBLENDMPD	Z1, Z0, K2, Z0;  \
	VBLENDMPD	Z2, Z0, K3, Z0;  \
	VADDPD	Z0, N, K1, N;

#define PULL4(off, b4, b5, N) \
	VMOVDQA64	off(R11), Z0;    \
	VMOVDQA64	off(R11), Z1;    \
	VMOVDQA64	off(R11), Z2;    \
	VMOVDQA64	off(R11), Z3;    \
	KMOVB	b4(R11), K2;         \
	KMOVB	b5(R11), K3;         \
	VPMOVQ2M	Z0, K1;          \
	VPERMI2PD	Z9, Z8, Z0;      \
	VPERMI2PD	Z11, Z10, Z1;    \
	VPERMI2PD	Z13, Z12, Z2;    \
	VPERMI2PD	Z15, Z14, Z3;    \
	VBLENDMPD	Z1, Z0, K2, Z0;  \
	VBLENDMPD	Z3, Z2, K2, Z2;  \
	VBLENDMPD	Z2, Z0, K3, Z0;  \
	VADDPD	Z0, N, K1, N;

// SHARE(D, N, S) turns a block's current scores N into its shares S =
// N·d/deg and resets N to the iteration's base.
#define SHARE(D, N, S) \
	VMULPD	D, N, S;              \
	VBROADCASTSD	5136(R8), N;

// func pageRankAVX512(a pageRankArgs) bool
//
// The set-up builds each vertex's 64-bit neighbour mask from the edge
// list (an edge sets two bits), then per block of eight vertices its
// degree (VPOPCNTQ), d/deg and the dangling lanes, and per round k the
// index of every vertex's k-th neighbour. It declines, before dst is
// written, on an endpoint outside [0, n) or a degree over
// PageRankMaxDegree. Each iteration then sums the dangling scores in
// ascending order (BSFQ over the dangling mask), turns the scores into
// shares in registers, and pulls each vertex's neighbour shares one
// round at a time: a lookup in the share registers and a VADDPD masked
// to the lanes with a k-th neighbour. Every vertex so adds its
// neighbours' shares to the base in ascending order, one rounded add at
// a time, as the edge pass does. The variants p1–p4 differ in the pairs
// of share registers a lookup reads and in the blocks they run; a block
// past ⌈n/8⌉ is skipped.
TEXT ·pageRankAVX512(SB), 0, $5248-49
	MOVQ	a_n+16(FP), DX
	LEAQ	63(SP), R8
	ANDQ	$-64, R8
	VPXORQ	Z4, Z4, Z4
	VMOVDQA64	Z4, (R8)
	VMOVDQA64	Z4, 64(R8)
	VMOVDQA64	Z4, 128(R8)
	VMOVDQA64	Z4, 192(R8)
	VMOVDQA64	Z4, 256(R8)
	VMOVDQA64	Z4, 320(R8)
	VMOVDQA64	Z4, 384(R8)
	VMOVDQA64	Z4, 448(R8)
	MOVQ	a_edges+0(FP), SI
	MOVQ	a_m+8(FP), CX
	TESTQ	CX, CX
	JZ	degrees
edge:
	MOVL	(SI), AX
	MOVL	4(SI), BX
	CMPQ	AX, DX
	JAE	decline
	CMPQ	BX, DX
	JAE	decline
	MOVQ	(R8)(AX*8), R9
	BTSQ	BX, R9
	MOVQ	R9, (R8)(AX*8)
	MOVQ	(R8)(BX*8), R9
	BTSQ	AX, R9
	MOVQ	R9, (R8)(BX*8)
	ADDQ	$8, SI
	DECQ	CX
	JNZ	edge
degrees:
	LEAQ	7(DX), DI
	SHRQ	$3, DI                 // blocks
	LEAQ	1(DI), SI
	SHRQ	$1, SI                 // share-register pairs
	MOVQ	$0x0807060504030201, AX
	VMOVQ	AX, X0
	VPMOVZXBQ	X0, Z0
	VCVTUQQ2PD	Z0, Z0             // 1.0 … 8.0
	VBROADCASTSD	a_damping+32(FP), Z2
	VDIVPD	Z0, Z2, Z2             // d/1 … d/8
	VPTERNLOGQ	$0xFF, Z3, Z3, Z3  // all ones
	VPXORQ	Z5, Z5, Z5
	XORQ	R9, R9
	PRDEG(0, 0, Z8, Z24)
	PRDEG(64, 8, Z9, Z25)
	CMPQ	SI, $1
	JEQ	dangling
	PRDEG(128, 16, Z10, Z26)
	PRDEG(192, 24, Z11, Z27)
	CMPQ	SI, $2
	JEQ	dangling
	PRDEG(256, 32, Z12, Z28)
	PRDEG(320, 40, Z13, Z29)
	CMPQ	SI, $3
	JEQ	dangling
	PRDEG(384, 48, Z14, Z30)
	PRDEG(448, 56, Z15, Z31)
dangling:
	// R9 = the vertices below n of degree 0
	MOVQ	$64, CX
	SUBQ	DX, CX
	MOVQ	$-1, AX
	SHRQ	CX, AX
	NOTQ	R9
	ANDQ	AX, R9
	// R10 = the largest degree
	VEXTRACTI64X4	$1, Z5, Y0
	VPMAXUQ	Y0, Y5, Y5
	VEXTRACTI128	$1, Y5, X0
	VPMAXUQ	X0, X5, X5
	VPSHUFD	$0x4E, X5, X0
	VPMAXUQ	X0, X5, X5
	VMOVQ	X5, R10
	CMPQ	R10, $8
	JA	decline
	MOVQ	$16, AX
	VPBROADCASTQ	AX, Z6
	MOVQ	$32, AX
	VPBROADCASTQ	AX, Z7
	MOVQ	$64, AX
	VPBROADCASTQ	AX, Z1
	LEAQ	512(R8), R11
	MOVQ	R10, R12
	TESTQ	R12, R12
	JZ	scalars
round:
	PRROUND(0, 512, 520, Z8)
	PRROUND(64, 513, 521, Z9)
	CMPQ	SI, $1
	JEQ	roundEnd
	PRROUND(128, 514, 522, Z10)
	PRROUND(192, 515, 523, Z11)
	CMPQ	SI, $2
	JEQ	roundEnd
	PRROUND(256, 516, 524, Z12)
	PRROUND(320, 517, 525, Z13)
	CMPQ	SI, $3
	JEQ	roundEnd
	PRROUND(384, 518, 526, Z14)
	PRROUND(448, 519, 527, Z15)
roundEnd:
	ADDQ	$576, R11
	DECQ	R12
	JNZ	round
scalars:
	// inv = 1/n, c1 = (1−d)·inv, and the base of an iteration without
	// dangling vertices, c1 + (d·0)·inv
	VCVTSI2SDQ	DX, X0, X0
	MOVQ	$0x3FF0000000000000, AX
	VMOVQ	AX, X1
	VDIVSD	X0, X1, X2
	VMOVSD	X2, 5120(R8)
	VMOVSD	a_damping+32(FP), X3
	VSUBSD	X3, X1, X1
	VMULSD	X2, X1, X1
	VMOVSD	X1, 5128(R8)
	VXORPD	X0, X0, X0
	VMULSD	X3, X0, X0
	VMULSD	X2, X0, X0
	VADDSD	X1, X0, X0
	VMOVSD	X0, 5136(R8)
	VBROADCASTSD	X2, Z16
	VMOVAPD	Z16, Z17
	VMOVAPD	Z16, Z18
	VMOVAPD	Z16, Z19
	VMOVAPD	Z16, Z20
	VMOVAPD	Z16, Z21
	VMOVAPD	Z16, Z22
	VMOVAPD	Z16, Z23
	MOVQ	a_iterations+24(FP), R13
iter:
	TESTQ	R9, R9
	JZ	dispatch
	VMOVAPD	Z16, (R8)
	VMOVAPD	Z17, 64(R8)
	VMOVAPD	Z18, 128(R8)
	VMOVAPD	Z19, 192(R8)
	VMOVAPD	Z20, 256(R8)
	VMOVAPD	Z21, 320(R8)
	VMOVAPD	Z22, 384(R8)
	VMOVAPD	Z23, 448(R8)
	VXORPD	X0, X0, X0
	MOVQ	R9, AX
dsum:
	BSFQ	AX, BX
	VADDSD	(R8)(BX*8), X0, X0
	LEAQ	-1(AX), CX
	ANDQ	CX, AX
	JNZ	dsum
	VMULSD	a_damping+32(FP), X0, X0
	VMULSD	5120(R8), X0, X0
	VADDSD	5128(R8), X0, X0
	VMOVSD	X0, 5136(R8)
dispatch:
	LEAQ	512(R8), R11
	MOVQ	R10, R12
	CMPQ	SI, $2
	JB	p1
	JEQ	p2
	CMPQ	SI, $3
	JEQ	p3
	JMP	p4
p1:
	SHARE(Z24, Z16, Z8)
	SHARE(Z25, Z17, Z9)
	TESTQ	R12, R12
	JZ	next
p1round:
	PULL1(0, 512, 520, Z16)
	CMPQ	DI, $2
	JNE	p1skip
	PULL1(64, 513, 521, Z17)
p1skip:
	ADDQ	$576, R11
	DECQ	R12
	JNZ	p1round
	JMP	next
p2:
	SHARE(Z24, Z16, Z8)
	SHARE(Z25, Z17, Z9)
	SHARE(Z26, Z18, Z10)
	SHARE(Z27, Z19, Z11)
	TESTQ	R12, R12
	JZ	next
p2round:
	PULL2(0, 512, 520, Z16)
	PULL2(64, 513, 521, Z17)
	PULL2(128, 514, 522, Z18)
	CMPQ	DI, $4
	JNE	p2skip
	PULL2(192, 515, 523, Z19)
p2skip:
	ADDQ	$576, R11
	DECQ	R12
	JNZ	p2round
	JMP	next
p3:
	SHARE(Z24, Z16, Z8)
	SHARE(Z25, Z17, Z9)
	SHARE(Z26, Z18, Z10)
	SHARE(Z27, Z19, Z11)
	SHARE(Z28, Z20, Z12)
	SHARE(Z29, Z21, Z13)
	TESTQ	R12, R12
	JZ	next
p3round:
	PULL3(0, 512, 520, Z16)
	PULL3(64, 513, 521, Z17)
	PULL3(128, 514, 522, Z18)
	PULL3(192, 515, 523, Z19)
	PULL3(256, 516, 524, Z20)
	CMPQ	DI, $6
	JNE	p3skip
	PULL3(320, 517, 525, Z21)
p3skip:
	ADDQ	$576, R11
	DECQ	R12
	JNZ	p3round
	JMP	next
p4:
	SHARE(Z24, Z16, Z8)
	SHARE(Z25, Z17, Z9)
	SHARE(Z26, Z18, Z10)
	SHARE(Z27, Z19, Z11)
	SHARE(Z28, Z20, Z12)
	SHARE(Z29, Z21, Z13)
	SHARE(Z30, Z22, Z14)
	SHARE(Z31, Z23, Z15)
	TESTQ	R12, R12
	JZ	next
p4round:
	PULL4(0, 512, 520, Z16)
	PULL4(64, 513, 521, Z17)
	PULL4(128, 514, 522, Z18)
	PULL4(192, 515, 523, Z19)
	PULL4(256, 516, 524, Z20)
	PULL4(320, 517, 525, Z21)
	PULL4(384, 518, 526, Z22)
	CMPQ	DI, $8
	JNE	p4skip
	PULL4(448, 519, 527, Z23)
p4skip:
	ADDQ	$576, R11
	DECQ	R12
	JNZ	p4round
next:
	DECQ	R13
	JNZ	iter
	// copy the n scores to dst, the last partial block under a mask
	VMOVAPD	Z16, (R8)
	VMOVAPD	Z17, 64(R8)
	VMOVAPD	Z18, 128(R8)
	VMOVAPD	Z19, 192(R8)
	VMOVAPD	Z20, 256(R8)
	VMOVAPD	Z21, 320(R8)
	VMOVAPD	Z22, 384(R8)
	VMOVAPD	Z23, 448(R8)
	MOVQ	a_dst+40(FP), DI
	MOVQ	R8, SI
	MOVQ	DX, CX
copy:
	CMPQ	CX, $8
	JB	tail
	VMOVAPD	(SI), Z0
	VMOVUPD	Z0, (DI)
	ADDQ	$64, SI
	ADDQ	$64, DI
	SUBQ	$8, CX
	JMP	copy
tail:
	TESTQ	CX, CX
	JZ	done
	MOVL	$1, AX
	SHLL	CX, AX
	DECL	AX
	KMOVB	AX, K7
	VMOVAPD	(SI), Z0
	VMOVUPD	Z0, K7, (DI)
done:
	MOVB	$1, ret+48(FP)
	VZEROUPPER
	RET
decline:
	MOVB	$0, ret+48(FP)
	VZEROUPPER
	RET
