// AVX2 and AVX-512 kernels for the carry-save accumulation cascade, the
// one-sweep small sign, and the packed Hamming inner loop.
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
//     and signSmallRange in smallsign.go: same CSA tree shape, same
//     weight-16 overflow rule, same ripple compare. Any change there must
//     land here too; the per-tier differential tests and FuzzBitCounter
//     enforce it.
//   - Register budget, csaXorBlock (AVX2): Y0-Y3 plane state, Y4-Y5
//     operand loads, Y6-Y11 cascade temporaries, Y12 s16, Y13 lane temp,
//     Y14 byteStride, Y15 xor/overflow temp. GP: DI args block, CX byte
//     offset, SI byte limit, R8-R15 the eight stream pointers, AX/BX
//     scratch pointers reloaded from the args block (there are not enough
//     GP registers to pin the twelve plane/lane pointers, and the reloads
//     hit the same hot cache line every iteration). The AVX-512 variant
//     mirrors this allocation onto Z registers and collapses each 3:2
//     compressor into a VPTERNLOGQ XOR3/majority pair; Z11, free there,
//     holds the operand mask (all ones, or the final group's live words
//     with args.tail in word n-1), and K2 the load/store opmask.
//   - Register budget, signSmall: the six planes never leave registers
//     while a word group runs through every block of the operand table.
//     AVX2 uses all sixteen: Y0-Y3 and Y13-Y14 the planes of weight 1 to
//     32, Y4-Y5 operand loads, Y6-Y11 cascade temporaries, Y12 s16, Y15
//     the broadcast XNOR mask; the compare reuses Y4-Y10 once the blocks
//     are done and broadcasts its constants per group. AVX-512 keeps the
//     same planes in Z0-Z3 and Z13-Z14 and pins the compare constants in
//     Z16-Z22 for the whole call. GP: DI args block, CX word byte offset,
//     R11 the current block's table entry, R10 the table's end, R8/R9
//     tie and dst, AX/BX stream pointers loaded from the table.
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

// Weight-16 spill into the eight byte lanes (l0..l3 at +224.., h0..h3 at
// +256..), used between a VPTEST-guarded branch in the function bodies.
#define LANEADDS256 \
	LANEADD256($0, 224)            \
	LANEADD256($1, 232)            \
	LANEADD256($2, 240)            \
	LANEADD256($3, 248)            \
	LANEADD256($4, 256)            \
	LANEADD256($5, 264)            \
	LANEADD256($6, 272)            \
	LANEADD256($7, 280)

#define LANEADDS512 \
	LANEADD512($0, 224)            \
	LANEADD512($1, 232)            \
	LANEADD512($2, 240)            \
	LANEADD512($3, 248)            \
	LANEADD512($4, 256)            \
	LANEADD512($5, 264)            \
	LANEADD512($6, 272)            \
	LANEADD512($7, 280)

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
	MOVQ	288(DI), SI;

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
// on them but word n-1, which gets the args block's tail mask (at
// TAILOFF), and zero beyond n.
#define FINALMASKS512(TAILOFF) \
	KMOVW	K4, K2;                        \
	VPTERNLOGQ.Z	$0xFF, Z11, Z11, K2, Z11; \
	VPBROADCASTQ	TAILOFF(DI), K3, Z11;

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

// The one-sweep small sign (signSmall) reads its operands from the
// smallArgs table: R11 points at the current block's first x entry, so
// operand K's A pointer is at 8K(R11), its B pointer 512 bytes further
// and its XNOR mask 1024 bytes further. Offsets in the args block: tie
// +1536, dst +1544, cm[0..5] +1552.., even +1600, blocks +1608, n +1616,
// tail +1624.
#define SMALLLOAD256(XOFF, YOFF, VOFF, DST) \
	MOVQ	XOFF(R11), AX;         \
	VMOVDQU	(AX)(CX*1), DST;       \
	MOVQ	YOFF(R11), BX;         \
	VPXOR	(BX)(CX*1), DST, DST;  \
	VPBROADCASTQ	VOFF(R11), Y15; \
	VPXOR	Y15, DST, DST;

// The AVX-512 form loads both streams and XORs them with the broadcast
// XNOR mask in one VPTERNLOGQ (0x96 = XOR3). It does not mask the tail
// word: garbage in the bit columns past the dimension stays in those
// columns, and the kernel clears them from dst instead.
#define SMALLLOAD512(XOFF, YOFF, VOFF, DST) \
	MOVQ	XOFF(R11), AX;                 \
	VMOVDQU64.Z	(AX)(CX*1), K2, DST;   \
	MOVQ	YOFF(R11), BX;                 \
	VMOVDQU64.Z	(BX)(CX*1), K2, Z15;   \
	VPTERNLOGQ.BCST	$0x96, VOFF(R11), Z15, DST;

#define SMALLLOADS256 \
	CASCADE256(SMALLLOAD256(0, 512, 1024, Y4) SMALLLOAD256(8, 520, 1032, Y5), SMALLLOAD256(16, 528, 1040, Y4) SMALLLOAD256(24, 536, 1048, Y5), SMALLLOAD256(32, 544, 1056, Y4) SMALLLOAD256(40, 552, 1064, Y5), SMALLLOAD256(48, 560, 1072, Y4) SMALLLOAD256(56, 568, 1080, Y5))

#define SMALLLOADS512 \
	CASCADE512(SMALLLOAD512(0, 512, 1024, Z4) SMALLLOAD512(8, 520, 1032, Z5), SMALLLOAD512(16, 528, 1040, Z4) SMALLLOAD512(24, 536, 1048, Z5), SMALLLOAD512(32, 544, 1056, Z4) SMALLLOAD512(40, 552, 1064, Z5), SMALLLOAD512(48, 560, 1072, Z4) SMALLLOAD512(56, 568, 1080, Z5))

// One step of the majority's bit-sliced ripple compare: plane P plus the
// constant mask (broadcast from args+CMOFF into Y4), carry in Y6, eq —
// the AND of the sum bits — in Y7.
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

// func signSmallAVX2(a *smallArgs)
TEXT ·signSmallAVX2(SB), NOSPLIT, $0-8
	MOVQ	a+0(FP), DI
	MOVQ	1616(DI), SI
	SHLQ	$3, SI                 // byte limit
	XORQ	CX, CX
	MOVQ	1536(DI), R8           // tie
	MOVQ	1544(DI), R9           // dst
	MOVQ	1608(DI), R10
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
	MOVQ	DI, R11
block:
	SMALLLOADS256
	VPAND	Y13, Y12, Y15          // thirtytwos |= sixteens & s16
	VPOR	Y15, Y14, Y14
	VPXOR	Y12, Y13, Y13          // sixteens ^= s16
	ADDQ	$64, R11
	CMPQ	R11, R10
	JB	block
	VPBROADCASTQ	1552(DI), Y4   // cm[0]; the first step has no carry in
	VPXOR	Y4, Y0, Y7
	VPAND	Y4, Y0, Y6
	RIPPLE256(Y1, 1560)
	RIPPLE256(Y2, 1568)
	RIPPLE256(Y3, 1576)
	RIPPLE256(Y13, 1584)
	RIPPLE256(Y14, 1592)
	VPBROADCASTQ	1600(DI), Y4   // even
	VPAND	(R8)(CX*1), Y7, Y7     // eq &= tie ...
	VPAND	Y4, Y7, Y7             // ... only for even n
	VPOR	Y7, Y6, Y6
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
	FINALMASKS512(296)
	JMP	loop
done:
	VZEROUPPER
	RET

// func signSmallAVX512(a *smallArgs)
TEXT ·signSmallAVX512(SB), NOSPLIT, $0-8
	MOVQ	a+0(FP), DI
	MOVQ	1616(DI), SI
	VPBROADCASTQ	1552(DI), Z16  // cm[0]
	VPBROADCASTQ	1560(DI), Z17  // cm[1]
	VPBROADCASTQ	1568(DI), Z18  // cm[2]
	VPBROADCASTQ	1576(DI), Z19  // cm[3]
	VPBROADCASTQ	1584(DI), Z20  // cm[4]
	VPBROADCASTQ	1592(DI), Z21  // cm[5]
	VPBROADCASTQ	1600(DI), Z22  // even
	MOVQ	1536(DI), R8           // tie
	MOVQ	1544(DI), R9           // dst
	MOVQ	1608(DI), R10
	SHLQ	$6, R10
	ADDQ	DI, R10                // end of the table's blocks
	TESTQ	SI, SI
	JZ	done
	FINALGROUP512
	VPTERNLOGQ	$0xFF, Z11, Z11, Z11
	CMPQ	CX, SI
	JEQ	final
group:
	VPXORQ	Z0, Z0, Z0
	VPXORQ	Z1, Z1, Z1
	VPXORQ	Z2, Z2, Z2
	VPXORQ	Z3, Z3, Z3
	VPXORQ	Z13, Z13, Z13
	VPXORQ	Z14, Z14, Z14
	MOVQ	DI, R11
block:
	SMALLLOADS512
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
	VMOVDQU64.Z	(R8)(CX*1), K2, Z26
	VPTERNLOGQ	$0x80, Z22, Z26, Z25   // eq &= tie & even
	VPTERNLOGQ	$0xA8, Z11, Z25, Z24   // dst = (carry | eq) & Z11
	VMOVDQU64	Z24, K2, (R9)(CX*1)
	ADDQ	$64, CX
	CMPQ	CX, SI
	JB	group
	JA	done
final:
	FINALMASKS512(1624)
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
