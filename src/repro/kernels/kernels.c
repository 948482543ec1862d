/* Fused negacyclic-NTT / automorphism / keyswitch kernels.
 *
 * This file is the C provider behind ``repro.kernels.CompiledBackend``:
 * it is compiled at first use by ``repro/kernels/cext.py`` with the host
 * C compiler (``cc -O3 -fPIC -shared -std=c11`` plus ``-fopenmp`` when
 * the toolchain supports it) and loaded through ctypes.  Every entry
 * point operates on a full (L, n) residue matrix and runs *all*
 * butterfly stages of every limb in one call — no per-stage dispatch, no
 * temporaries beyond the caller-provided workspace.
 *
 * The row kernels (``ROW_KERNEL``: ``fwd_row``, ``inv_row``,
 * ``drop_finish``, ``tensor_row`` and the entries whose row loops
 * inline ``mac_row`` / ``lift_row`` or gather -- ``repro_ks_apply``,
 * ``repro_drop_top_limb``, ``repro_auto_batch``) carry three GCC
 * ``target_clones``: baseline x86-64, x86-64-v3 (AVX2) and x86-64-v4
 * (AVX-512).  The ifunc resolver
 * picks one clone per function once, when the library loads, from the
 * CPU's ISA-level bits; ``repro_kernel_isa`` names the pick.  The build
 * command keeps baseline flags, so the shared object is the same file on
 * every x86-64 host and its cache key stays the source hash alone.  The
 * clones compute the same words: outputs are reduced, and a test builds
 * each level without clones and compares every entry's bytes.
 *
 * The butterfly loops exist once, in ``fwd_row`` / ``inv_row``; the
 * batch entries map them over rows, and the two row-fused entries
 * (``repro_ks_apply`` -- one keyswitch, or the keyswitches of several
 * rotations of one polynomial -- and ``repro_drop_top_limb``) call
 * them between a lift and a multiply-accumulate (a subtract-and-scale)
 * so a 64 KB row is produced and consumed while it is in cache.
 *
 * Every row loop but the forward's bit-reversal gather and the
 * automorphism scatter runs on the vector lanes, and the butterfly
 * lanes are 32-bit words, as wide as the modulus needs: every host
 * prime is below 2**30, so a lazy sum (< 4q) fits one, and each Shoup
 * product is one 32x32->64 multiply for its high word plus two low
 * products that wrap mod 2**32 to the exact result (< 2q).  The plan
 * tables are uint32 too, and so is each row's scratch: a row of lanes
 * is 32 KB at n = 8192.  Rows come in and go out as reduced uint64
 * words; a row with a word >= q is folded on the way in.  The word
 * reductions (fold, mulmod) and the drop's and the tensor product's
 * finishes work on 32-bit operands the same way.  The short NTT
 * stages, whose butterflies are closer together than a vector is
 * wide, run as one pass over 8-word blocks.
 *
 * Every word bound below follows from q < 2**30 (the host limit), and
 * tests/test_analysis_bounds_edges.py holds that limit to them; the
 * gates q does not decide are closed forms in ``repro.analysis.bounds``.
 * Which schedule a plan's kernels run is decided once, where the plan
 * is built
 * (``repro/ntt/negacyclic.py``, the batch plan the numpy path walks
 * too), and read here from ``plan_t`` -- no plan-taking entry has a
 * schedule argument a caller could set:
 *
 * - lazy Shoup butterflies (``*_sh`` tables, 2**32 radix) on 32-bit
 *   lanes in every NTT, forward and inverse: every lane stays below
 *   4q < 2**32 for a host prime (q < 2**30), and a plan is refused for
 *   a wider one;
 * - words reduced by ``fold`` (any uint64, a sum < 4q) and ``mulmod``
 *   (a product of two reduced words, a remainder < 3q): both exact in
 *   a 32-bit word for every host prime;
 * - the unreduced keyswitch accumulator only under
 *   ``keyswitch_lazy_accumulate_ok``;
 * - the conditional-add centered lift only under
 *   ``centered_lift_lazy_ok``.
 *
 * Outputs are always fully reduced (< q), which is what makes the
 * backend bit-identical to the numpy and VPU paths: the reduced residue
 * is unique regardless of the internal reduction schedule.
 */

#define _POSIX_C_SOURCE 199309L /* clock_gettime under -std=c11 */

#include <stdint.h>
#include <time.h>

typedef uint64_t u64;
typedef uint32_t u32;
typedef int64_t i64;

/* ROW_KERNEL: out of line, and cloned where the toolchain can -- x86-64
 * GCC 12 or later on glibc (ifunc).  Elsewhere it is plain noinline and
 * the build is the baseline one; ``-DKERNEL_CLONES=0`` builds that form
 * on any host, the reference the clones are tested against. */
#ifndef KERNEL_CLONES
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    __GNUC__ >= 12 && defined(__GLIBC__)
#define KERNEL_CLONES 1
#else
#define KERNEL_CLONES 0
#endif
#endif
#if KERNEL_CLONES
#define ROW_KERNEL                                                      \
    __attribute__((noinline,                                            \
                   target_clones("default", "arch=x86-64-v3", "arch=x86-64-v4")))
#else
#define ROW_KERNEL __attribute__((noinline))
#endif

/* Each entry point sets `par_rows` to its outer (independent-rows)
 * extent before the pragma; small batches stay serial so the threading
 * threshold, not the caller, decides when OpenMP pays. */
#ifdef _OPENMP
#define PARALLEL_LIMBS \
    _Pragma("omp parallel for schedule(static) if (par_rows > 1 && par_rows * n >= 16384)")
#define ATOMIC_UPDATE _Pragma("omp atomic")
#else
#define PARALLEL_LIMBS
#define ATOMIC_UPDATE
#endif

/* The clone of every ROW_KERNEL function this host runs: "x86-64-v4",
 * "x86-64-v3" or "default".  Cloned the same way; in a clone build the
 * answer is the resolver's own test (the ISA-level bits it reads, in the
 * clone list's order), in a build without clones the level the
 * compiler targeted. */
ROW_KERNEL
const char *repro_kernel_isa(void) {
#if KERNEL_CLONES
    __builtin_cpu_init();
    if (__builtin_cpu_supports("x86-64-v4")) return "x86-64-v4";
    if (__builtin_cpu_supports("x86-64-v3")) return "x86-64-v3";
    return "default";
#elif defined(__AVX512F__) && defined(__AVX512BW__) && \
    defined(__AVX512DQ__) && defined(__AVX512VL__)
    return "x86-64-v4";
#elif defined(__AVX2__) && defined(__FMA__) && defined(__BMI2__)
    return "x86-64-v3";
#else
    return "default";
#endif
}

/* Phase clock of the row-fused keyswitch.  `ticks` is NULL unless an
 * observer asked for the split; on NULL neither helper reads a clock.
 * Slots: 0 inverse NTTs, 1 lifts, 2 forward NTTs, 3 MACs, 4 checks. */
static inline i64 tick_now(const i64 *ticks) {
    if (!ticks) return 0;
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (i64)ts.tv_sec * 1000000000 + ts.tv_nsec;
}

static inline void tick_add(i64 *ticks, int slot, i64 ns) {
    if (!ticks) return;
    ATOMIC_UPDATE
    ticks[slot] += ns;
}

/* The reduction constants of one modulus q < 2**30 (the host limit),
 * derived here from q alone: its width w (2**(w-1) <= q < 2**w), the
 * w-bit Barrett constant u = floor(2**(2w) / q), and the fold constant
 * c = 2**32 mod q with the Shoup companions of c and of 1.  All of them
 * are 32-bit words, like the lanes they reduce. */
typedef struct {
    u32 q, u, c, c_sh, one_sh;
    int w;
} modulus_t;

static inline modulus_t modulus_of(u64 q) {
    modulus_t m;
    m.q = (u32)q;
    m.w = 64 - __builtin_clzll(q);
    m.u = (u32)(((u64)1 << (2 * m.w)) / q);
    m.c = (u32)(((u64)1 << 32) % q);
    m.c_sh = (u32)(((u64)m.c << 32) / q);
    m.one_sh = (u32)(((u64)1 << 32) / q);
    return m;
}

/* The high word of a * b: the lanes' one 32x32->64 multiply. */
static inline u32 mulhi32(u32 a, u32 b) {
    return (u32)(((u64)a * b) >> 32);
}

/* x - t where x >= t, else x: a conditional subtract. */
static inline u32 csub(u32 x, u32 t) {
    return x >= t ? x - t : x;
}

/* Shoup multiplication x * w mod q, lazily in [0, 2q).  w_sh is the
 * precomputed companion floor(w * 2**32 / q); requires q < 2**30 and
 * x below the 2**32 radix.  The two low products wrap mod 2**32, but the difference
 * they give is below 2q < 2**32, so it is exact. */
static inline u32 shoup_mul_lazy(u32 x, u32 w, u32 w_sh, u32 q) {
    return x * w - mulhi32(x, w_sh) * q;
}

/* Any uint64 z modulo q: z = hi 2**32 + lo is congruent to hi c + lo,
 * two Shoup products of 32-bit multiplicands (by c and by 1), each
 * < 2q; two conditional subtracts take the < 4q sum below q. */
static inline u32 fold(u64 z, modulus_t m) {
    const u32 r = shoup_mul_lazy((u32)(z >> 32), m.c, m.c_sh, m.q)
                  + shoup_mul_lazy((u32)z, 1, m.one_sh, m.q);
    return csub(csub(r, 2 * m.q), m.q);
}

/* a * b mod q for two reduced words, by the w-bit Barrett of the lane
 * model (repro.arith.barrett): z = a b < 2**(2w), the estimate
 * ((z >> (w - 1)) u) >> (w + 1) undershoots floor(z / q) by at most 2,
 * so the remainder is < 3q -- exact in the low word -- and two
 * conditional subtracts finish it. */
static inline u32 mulmod(u32 a, u32 b, modulus_t m) {
    const u64 z = (u64)a * b;
    const u32 est = (u32)(((u64)(u32)(z >> (m.w - 1)) * m.u) >> (m.w + 1));
    return csub(csub((u32)z - est * m.q, 2 * m.q), m.q);
}

/* One lazy butterfly on lanes < 2q.  DIF: the sum
 * and the twiddled difference; DIT: the twiddled v, then the sum and
 * the difference, each clamped to < 2q.  Sums and differences are
 * < 4q < 2**32. */
static inline void dif_bf(u32 *u, u32 *v, u32 w, u32 w_sh, u32 q) {
    const u32 t = csub(*u + *v, 2 * q);
    const u32 d = *u + 2 * q - *v;
    *u = t;
    *v = shoup_mul_lazy(d, w, w_sh, q);
}

static inline void dit_bf(u32 *u, u32 *v, u32 w, u32 w_sh, u32 q) {
    const u32 t = shoup_mul_lazy(*v, w, w_sh, q);
    const u32 s = csub(*u + t, 2 * q);
    *v = csub(*u + 2 * q - t, 2 * q);
    *u = s;
}

/* The identity-twiddle butterfly of the len-1 stage, either
 * direction: omega**0 == 1, so no product. */
static inline void unit_bf(u32 *u, u32 *v, u32 q) {
    const u32 t = csub(*u + *v, 2 * q);
    *v = csub(*u + 2 * q - *v, 2 * q);
    *u = t;
}

/* ------------------------------------------------------------------ */
/* One row of the forward negacyclic NTT, all stages fused -- the only */
/* forward butterfly loops in this file.                               */
/*                                                                    */
/* x: n input words; a: n 32-bit lanes of scratch; o: n output words  */
/* (o may alias x: the psi fold consumes x before o is written).      */
/* ps/ps_sh: the row's psi folding table.  tw/tw_sh: its flattened    */
/* DIF stage twiddles (lengths n/2, n/4, .., 1 concatenated -> n - 1  */
/* entries; stage len starts at n - 2 len).  bitrev: the length-n     */
/* involution undoing the DIF output order.  Every product is a       */
/* mod-free Shoup product.  The stages down to len 8 run one          */
/* butterfly loop; len 4, 2 and 1 run as one pass over 8-word blocks, */
/* whose six twiddles are the same in every block.                    */
/* Out of line: inlined into a row loop, gcc 12 -O3 -fopenmp spilled  */
/* a butterfly product to the stack (a ~8 % slower forward NTT).      */
/* ------------------------------------------------------------------ */
ROW_KERNEL
static void fwd_row(const u64 *x, u32 *a, u64 *o, i64 n, u32 q,
                    const u32 *ps, const u32 *ps_sh,
                    const u32 *tw, const u32 *tw_sh, const i64 *bitrev) {
    /* psi fold: x * psi^j, into [0, 2q).  The loop notes whether the
     * row had a word >= q; only such a row is folded again, each word
     * reduced first. */
    u64 wide = 0;
    for (i64 i = 0; i < n; i++) {
        wide |= x[i] >= q;
        a[i] = shoup_mul_lazy((u32)x[i], ps[i], ps_sh[i], q);
    }
    if (wide) {
        const modulus_t m = modulus_of(q);
        for (i64 i = 0; i < n; i++)
            a[i] = shoup_mul_lazy(fold(x[i], m), ps[i], ps_sh[i], q);
    }

    /* Gentleman-Sande DIF stages, lazy (< 2q lanes throughout); below
     * n = 8 this loop runs every stage, the last one's twiddle 1. */
    for (i64 len = n >> 1; len >= (n >= 8 ? 8 : 1); len >>= 1) {
        const u32 *wt = tw + n - 2 * len;
        const u32 *wt_sh = tw_sh + n - 2 * len;
        for (i64 start = 0; start < n; start += 2 * len) {
            u32 *pu = a + start;
            u32 *pv = a + start + len;
            for (i64 j = 0; j < len; j++)
                dif_bf(&pu[j], &pv[j], wt[j], wt_sh[j], q);
        }
    }
    if (n >= 8) {
        const u32 *w4 = tw + n - 8, *s4 = tw_sh + n - 8;
        const u32 *w2 = tw + n - 4, *s2 = tw_sh + n - 4;
        const u32 w40 = w4[0], w41 = w4[1], w42 = w4[2], w43 = w4[3];
        const u32 s40 = s4[0], s41 = s4[1], s42 = s4[2], s43 = s4[3];
        const u32 w20 = w2[0], w21 = w2[1], s20 = s2[0], s21 = s2[1];
        for (i64 start = 0; start < n; start += 8) {
            u32 *b = a + start;
            u32 b0 = b[0], b1 = b[1], b2 = b[2], b3 = b[3];
            u32 b4 = b[4], b5 = b[5], b6 = b[6], b7 = b[7];
            dif_bf(&b0, &b4, w40, s40, q);
            dif_bf(&b1, &b5, w41, s41, q);
            dif_bf(&b2, &b6, w42, s42, q);
            dif_bf(&b3, &b7, w43, s43, q);
            dif_bf(&b0, &b2, w20, s20, q);
            dif_bf(&b1, &b3, w21, s21, q);
            dif_bf(&b4, &b6, w20, s20, q);
            dif_bf(&b5, &b7, w21, s21, q);
            unit_bf(&b0, &b1, q);
            unit_bf(&b2, &b3, q);
            unit_bf(&b4, &b5, q);
            unit_bf(&b6, &b7, q);
            b[0] = b0, b[1] = b1, b[2] = b2, b[3] = b3;
            b[4] = b4, b[5] = b5, b[6] = b6, b[7] = b7;
        }
    }

    /* Undo the DIF output order (bit reversal is an involution: a
     * gather with the same table) and finish the < q reduction. */
    for (i64 i = 0; i < n; i++)
        o[i] = csub(a[bitrev[i]], q);
}

/* ------------------------------------------------------------------ */
/* One row of the inverse negacyclic NTT, all stages fused -- the only */
/* inverse butterfly loops in this file.                               */
/*                                                                    */
/* x/a/o as in fwd_row (o may alias x: the bit-reversal gather and    */
/* the refold of a wide row consume x first).  tw/tw_sh: flattened    */
/* DIT stage twiddles (lengths 1, 2, .., n/2; stage len starts at     */
/* len - 1).  uf/uf_sh: the fused psi^{-j} * n^{-1} table.  Lazy      */
/* Shoup throughout: < 2q lanes, mod-free twiddle products, a Shoup   */
/* unfold plus one conditional subtract.  Stages len 1, 2 and 4 run   */
/* as one pass over 8-word blocks, the rest as one loop.              */
/* ------------------------------------------------------------------ */
ROW_KERNEL
static void inv_row(const u64 *x, u32 *a, u64 *o, i64 n, u32 q,
                    const u32 *tw, const u32 *tw_sh,
                    const u32 *uf, const u32 *uf_sh, const i64 *bitrev) {
    /* Natural order -> bit-reversed DIT input; a row that had a word
     * >= q is gathered again, each word folded below q. */
    u64 wide = 0;
    for (i64 i = 0; i < n; i++) {
        const u64 v = x[bitrev[i]];
        wide |= v >= q;
        a[i] = (u32)v;
    }
    if (wide) {
        const modulus_t m = modulus_of(q);
        for (i64 i = 0; i < n; i++) a[i] = fold(x[bitrev[i]], m);
    }

    i64 len = 1;
    if (n >= 8) {
        const u32 w20 = tw[1], w21 = tw[2], s20 = tw_sh[1], s21 = tw_sh[2];
        const u32 w40 = tw[3], w41 = tw[4], w42 = tw[5], w43 = tw[6];
        const u32 s40 = tw_sh[3], s41 = tw_sh[4], s42 = tw_sh[5],
                  s43 = tw_sh[6];
        for (i64 start = 0; start < n; start += 8) {
            u32 *b = a + start;
            u32 b0 = b[0], b1 = b[1], b2 = b[2], b3 = b[3];
            u32 b4 = b[4], b5 = b[5], b6 = b[6], b7 = b[7];
            unit_bf(&b0, &b1, q);
            unit_bf(&b2, &b3, q);
            unit_bf(&b4, &b5, q);
            unit_bf(&b6, &b7, q);
            dit_bf(&b0, &b2, w20, s20, q);
            dit_bf(&b1, &b3, w21, s21, q);
            dit_bf(&b4, &b6, w20, s20, q);
            dit_bf(&b5, &b7, w21, s21, q);
            dit_bf(&b0, &b4, w40, s40, q);
            dit_bf(&b1, &b5, w41, s41, q);
            dit_bf(&b2, &b6, w42, s42, q);
            dit_bf(&b3, &b7, w43, s43, q);
            b[0] = b0, b[1] = b1, b[2] = b2, b[3] = b3;
            b[4] = b4, b[5] = b5, b[6] = b6, b[7] = b7;
        }
        len = 8;
    }
    /* The remaining stages; below n = 8 every stage, the first one's
     * twiddle 1. */
    for (; len < n; len <<= 1) {
        const u32 *wt = tw + len - 1;
        const u32 *wt_sh = tw_sh + len - 1;
        for (i64 start = 0; start < n; start += 2 * len) {
            u32 *pu = a + start;
            u32 *pv = a + start + len;
            for (i64 j = 0; j < len; j++)
                dit_bf(&pu[j], &pv[j], wt[j], wt_sh[j], q);
        }
    }
    for (i64 i = 0; i < n; i++)
        o[i] = csub(shoup_mul_lazy(a[i], uf[i], uf_sh[i], q), q);
}

/* One (n, primes) plan (repro/ntt/negacyclic.py): its constant tables,
 * row l modulo q[l] -- n words per row in psi/unfold, n - 1 in the flat
 * stage twiddles, each with its Shoup companion (*_sh), all 32-bit
 * words like the lanes -- and the accumulator schedule the gates proved
 * for it.  Field order is the ctypes mirror's (cext.PlanTables). */
typedef struct {
    const u64 *q;
    const u32 *psi, *psi_sh;
    const u32 *twf, *twf_sh;
    const u32 *twi, *twi_sh;
    const u32 *unfold, *unfold_sh;
    const i64 *bitrev;
    int ks_lazy; /* repro_ks_apply: 1 unreduced accumulator */
} plan_t;

static inline void plan_fwd(const plan_t *p, i64 l, i64 n, const u64 *x,
                            u32 *a, u64 *o) {
    fwd_row(x, a, o, n, (u32)p->q[l], p->psi + l * n, p->psi_sh + l * n,
            p->twf + l * (n - 1), p->twf_sh + l * (n - 1), p->bitrev);
}

static inline void plan_inv(const plan_t *p, i64 l, i64 n, const u64 *x,
                            u32 *a, u64 *o) {
    inv_row(x, a, o, n, (u32)p->q[l], p->twi + l * (n - 1),
            p->twi_sh + l * (n - 1), p->unfold + l * n, p->unfold_sh + l * n,
            p->bitrev);
}

/* ------------------------------------------------------------------ */
/* Batched transforms: in/out (L, n) row-major, row l through plan    */
/* row l; scratch (L, n) 32-bit lanes.                                 */
/* ------------------------------------------------------------------ */
void repro_fwd_ntt_batch(const plan_t *plan, const u64 *in, u64 *out,
                         u32 *scratch, i64 L, i64 n) {
    const i64 par_rows = L;
    PARALLEL_LIMBS
    for (i64 l = 0; l < par_rows; l++)
        plan_fwd(plan, l, n, in + l * n, scratch + l * n, out + l * n);
}

void repro_inv_ntt_batch(const plan_t *plan, const u64 *in, u64 *out,
                         u32 *scratch, i64 L, i64 n) {
    const i64 par_rows = L;
    PARALLEL_LIMBS
    for (i64 l = 0; l < par_rows; l++)
        plan_inv(plan, l, n, in + l * n, scratch + l * n, out + l * n);
}

/* ------------------------------------------------------------------ */
/* Batched evaluation-domain automorphism: one prime-independent       */
/* gather applied to every limb (dest[i] is where slot i lands).      */
/* ------------------------------------------------------------------ */
ROW_KERNEL
void repro_auto_batch(const u64 *in, u64 *out, i64 L, i64 n,
                      const i64 *dest) {
    const i64 par_rows = L;
    PARALLEL_LIMBS
    for (i64 l = 0; l < par_rows; l++) {
        const u64 *x = in + l * n;
        u64 *o = out + l * n;
        for (i64 i = 0; i < n; i++)
            o[dest[i]] = x[i];
    }
}

/* ------------------------------------------------------------------ */
/* The keyswitch multiply-accumulate of one limb row, written once:   */
/* s0 += digit * b, s1 += digit * a.  src is NULL, or the source table */
/* of a slot permutation: the digit is then the Galois image of row    */
/* dd, slot k of which is dd[src[k]] (a gather: the accumulators and   */
/* the key rows are still walked in order).                            */
/*                                                                    */
/* lazy == 1 accumulates raw uint64 products and leaves the single    */
/* final fold to mac_finish (gate: keyswitch_lazy_accumulate_ok);     */
/* otherwise every product is Barrett-reduced as it is added and the  */
/* running sum is kept < q with a conditional subtract.               */
/* ------------------------------------------------------------------ */
static inline void mac_clear(u64 *s0, u64 *s1, i64 n) {
    for (i64 k = 0; k < n; k++) {
        s0[k] = 0;
        s1[k] = 0;
    }
}

static inline void mac_row(u64 *s0, u64 *s1, const u64 *dd, const i64 *src,
                           const u64 *bb, const u64 *aa, i64 n, modulus_t m,
                           int lazy) {
    if (lazy) {
        for (i64 k = 0; k < n; k++) {
            const u64 d = dd[src ? src[k] : k];
            s0[k] += d * bb[k];
            s1[k] += d * aa[k];
        }
    } else {
        for (i64 k = 0; k < n; k++) {
            const u64 d = dd[src ? src[k] : k];
            s0[k] = csub((u32)s0[k] + mulmod((u32)d, (u32)bb[k], m), m.q);
            s1[k] = csub((u32)s1[k] + mulmod((u32)d, (u32)aa[k], m), m.q);
        }
    }
}

static inline void mac_finish(u64 *s0, u64 *s1, i64 n, modulus_t m,
                              int lazy) {
    if (!lazy) return;
    for (i64 k = 0; k < n; k++) {
        s0[k] = fold(s0[k], m);
        s1[k] = fold(s1[k], m);
    }
}

/* ------------------------------------------------------------------ */
/* Keyswitch inner product over stacks: acc0 = sum_d digit_d * b_d    */
/* and acc1 = sum_d digit_d * a_d, reduced per limb.  digits is a     */
/* contiguous (D, R, n) stack; digit d's key rows start key_stride    */
/* words after digit d - 1's (R * n for a contiguous stack, more for  */
/* a view into a KeySwitchKey block).                                  */
/* ------------------------------------------------------------------ */
void repro_ks_accum(const u64 *digits, const u64 *bstack, const u64 *astack,
                    i64 key_stride, u64 *acc0, u64 *acc1,
                    i64 D, i64 R, i64 n,
                    const u64 *q_arr, int lazy) {
    const i64 par_rows = R;
    PARALLEL_LIMBS
    for (i64 r = 0; r < par_rows; r++) {
        const modulus_t m = modulus_of(q_arr[r]);
        u64 *s0 = acc0 + r * n;
        u64 *s1 = acc1 + r * n;
        mac_clear(s0, s1, n);
        for (i64 d = 0; d < D; d++)
            mac_row(s0, s1, digits + (d * R + r) * n, 0,
                    bstack + d * key_stride + r * n,
                    astack + d * key_stride + r * n, n, m, lazy);
        mac_finish(s0, s1, n, m, lazy);
    }
}

/* Centered lift of one coefficient row mod q_from, reduced mod q_to by
 * a conditional add: |centered| <= q_from / 2 < q_to (gate:
 * centered_lift_lazy_ok), so the upper half maps to c - q_from + q_to,
 * a uint64 add of the wrapped offset. */
static inline void lift_row(const u64 *c, u64 *o, i64 n,
                            u64 q_from, u64 q_to) {
    const u64 half = q_from >> 1, offset = q_to - q_from;
    for (i64 k = 0; k < n; k++)
        o[k] = c[k] + (c[k] > half ? offset : 0);
}

/* ------------------------------------------------------------------ */
/* In-kernel integrity sums (repro.fault.integrity.AbftChecker).      */
/*                                                                    */
/* The two row-fused entries take an optional `check`; NULL runs the  */
/* instructions they ran without it and nothing else.  With it, every */
/* row NTT is bracketed by the two dot products of the checker's row  */
/* check -- <w, x> over the row before the transform, <r, y> over it  */
/* after, with w = M^T r -- and repro_ks_apply runs the spare-modulus */
/* channel beside mac_row.  The kernel only sums: the final % q, the  */
/* recombination of the halves and the verdict stay with the checker. */
/* Field order is the ctypes mirror's (cext.CheckTables).             */
/* ------------------------------------------------------------------ */
typedef struct {
    /* (plan rows, 2, 2, n) each: plan row l's input weights w, then its
     * output weights r, both as (lo, hi) 15-bit halves. */
    const u32 *intt, *ntt;
    /* Per rotation, its key block mod spare_q in the block's own
     * (D, 2, K, n) layout; repro_ks_apply only. */
    const u32 **key_images;
    /* Out, (row NTTs, 2, 2): per row NTT the input side then the output
     * side, each the unreduced (lo, hi) half sums. */
    u64 *sums;
    /* Out, (G, L + 1, 2, 2): per rotation, target limb and key part,
     * sum_k of the unreduced accumulator mod spare_q, then the spare
     * channel, sum_i of <digit i, key image i> mod spare_q -- congruent
     * mod spare_q; repro_ks_apply only. */
    u64 *spare;
    u64 spare_q;
} check_t;

/* One side of a row check: both half-weight dot products of row x,
 * unreduced (gate: checksum_dot_lazy_ok at max_x = 2**32 - 1, asked
 * where the plan is built).  A reduced row has no word >= 2**32: a row
 * that does gets all-ones sums, which the checker never accepts,
 * instead of sums that wrapped. */
static inline void check_side(const u32 *halves, const u64 *x, i64 n,
                              u64 *out) {
    const u32 *lo = halves, *hi = halves + n;
    u64 s_lo = 0, s_hi = 0, seen = 0;
    for (i64 k = 0; k < n; k++) {
        const u64 v = x[k];
        s_lo += v * lo[k];
        s_hi += v * hi[k];
        seen |= v;
    }
    const u64 wide = (seen >> 32) ? ~(u64)0 : 0;
    out[0] = s_lo | wide;
    out[1] = s_hi | wide;
}

/* Side `side` (0 input, 1 output) of row NTT number `r` of the kernel's
 * walk, a forward (fwd) or inverse transform through plan row l.
 * Returns the nanoseconds it took (0 without ticks) so the caller can
 * keep them out of the neighbouring phase. */
static inline i64 check_row(const check_t *check, int fwd, i64 l, i64 r,
                            int side, const u64 *x, i64 n,
                            const i64 *ticks) {
    if (!check) return 0;
    const i64 t0 = tick_now(ticks);
    const u32 *table = fwd ? check->ntt : check->intt;
    check_side(table + (4 * l + 2 * side) * n, x, n,
               check->sums + 4 * r + 2 * side);
    return tick_now(ticks) - t0;
}

/* One digit row mod the spare modulus, taken once however many
 * rotations read it.  Words below qs < 2**20. */
static inline void spare_reduce(u32 *dq, const u64 *dd, i64 n,
                                modulus_t ms) {
    for (i64 k = 0; k < n; k++)
        dq[k] = fold(dd[k], ms);
}

/* The spare-modulus channel of one digit row, beside mac_row and over
 * the row it read (through the same src): the dot products of the
 * digit mod qs with the b image and with the a image, each reduced and
 * added to its accumulator's channel side, sides[1] / sides[3].  Both
 * factors are below qs < 2**20 and checksum_ok bounds n by 2**17, so a
 * row's dot product stays unreduced. */
static inline void spare_row(u64 *sides, const u32 *dq, const i64 *src,
                             const u32 *ib, const u32 *ia, i64 n,
                             modulus_t ms) {
    u64 t0 = 0, t1 = 0;
    for (i64 k = 0; k < n; k++) {
        const u64 d = dq[src ? src[k] : k];
        t0 += d * ib[k];
        t1 += d * ia[k];
    }
    sides[1] += fold(t0, ms);
    sides[3] += fold(t1, ms);
}

/* The accumulator side of a spare check: the unreduced accumulator
 * reduced mod qs word by word and summed (n words below 2**20: exact). */
static inline u64 spare_sum(const u64 *acc, i64 n, modulus_t ms) {
    u64 sum = 0;
    for (i64 k = 0; k < n; k++) sum += fold(acc[k], ms);
    return sum;
}

/* ------------------------------------------------------------------ */
/* Row-fused keyswitch: the whole of apply_keyswitch in one call, for */
/* G Galois images of one polynomial at once (hoisted rotations).     */
/*                                                                    */
/* x: (L, n) evaluation-domain rows mod the first L plan primes; the  */
/* plan has L + 1 rows, the special prime last.  keys: G key blocks   */
/* (D >= L, 2, K, n), digit i's b / a rows at [i][0] / [i][1], read   */
/* in place through keep (L + 1 row indices below K).  tables: NULL   */
/* -- G plain keyswitches of x -- or G source tables of Galois maps:  */
/* rotation g switches sigma_g(x), slot k of which is slot            */
/* tables[g][k] of x.  acc0/acc1: (G, L + 1, n) outputs.  work:       */
/* (2 L + 1, n): the L coefficient rows, then one digit row per       */
/* target limb.  scratch: (L + 1, n) 32-bit lanes, one row per target */
/* limb (the inverse NTTs take the first L).                          */
/*                                                                    */
/* After the L inverse NTTs, target limb j takes each digit i in      */
/* turn: lift coefficient row i into j's scratch row, forward-NTT it  */
/* mod q_j there, and -- while it is still in cache -- multiply-      */
/* accumulate it into every rotation's acc0[g][j] / acc1[g][j],       */
/* rotation g reading it through its table against its own key rows:  */
/* the Galois map is the same slot permutation in every limb, so it   */
/* commutes with the per-prime digits and each digit row is           */
/* transformed once however many rotations there are.  No             */
/* (L, L + 1, n) digit tensor.  On the diagonal the lift is congruent */
/* to x[i] mod q_i and forward of inverse is the identity, so x[i]    */
/* itself is the digit.                                               */
/*                                                                    */
/* ticks: NULL, or 5 slots that gain the nanoseconds spent in the     */
/* inverse NTTs, lifts, forward NTTs, MACs and the check's loops      */
/* (summed over threads).                                              */
/*                                                                    */
/* check: NULL, or the integrity sums.  Row NTTs are numbered as the  */
/* phased keyswitch batches them -- once per call, not per rotation:  */
/* the L inverse rows, then the forward row of digit i in target limb */
/* j != i at L + i L + j (less one past the diagonal).  The spare     */
/* channel runs per rotation, against key_images[g], and needs the    */
/* accumulator unreduced (plan->ks_lazy; the binding refuses          */
/* otherwise).                                                         */
/* ------------------------------------------------------------------ */
ROW_KERNEL
void repro_ks_apply(const plan_t *plan, const u64 *x, const u64 *const *keys,
                    const i64 *const *tables, i64 G, const i64 *keep,
                    u64 *acc0, u64 *acc1, u64 *work, u32 *scratch,
                    i64 L, i64 K, i64 n, i64 *ticks, const check_t *check) {
    const int lazy = plan->ks_lazy;
    u64 *coeff = work;
    const modulus_t ms = check ? modulus_of(check->spare_q) : (modulus_t){0};
    i64 par_rows = L;
    PARALLEL_LIMBS
    for (i64 l = 0; l < par_rows; l++) {
        i64 check_ns = check_row(check, 0, l, l, 0, x + l * n, n, ticks);
        const i64 t0 = tick_now(ticks);
        plan_inv(plan, l, n, x + l * n, scratch + l * n, coeff + l * n);
        tick_add(ticks, 0, tick_now(ticks) - t0);
        check_ns += check_row(check, 0, l, l, 1, coeff + l * n, n, ticks);
        tick_add(ticks, 4, check_ns);
    }

    par_rows = L + 1;
    PARALLEL_LIMBS
    for (i64 j = 0; j < par_rows; j++) {
        const modulus_t m = modulus_of(plan->q[j]);
        u64 *row = work + (L + j) * n;
        u32 *lanes = scratch + j * n;
        u32 *dq = lanes; /* digit mod qs, once the NTT is done with it */
        i64 lift_ns = 0, ntt_ns = 0, mac_ns = 0, check_ns = 0;
        i64 t0 = tick_now(ticks), t1;
        for (i64 g = 0; g < G; g++) {
            const i64 out = (g * (L + 1) + j) * n;
            mac_clear(acc0 + out, acc1 + out, n);
            if (check) {
                u64 *sides = check->spare + 4 * (g * (L + 1) + j);
                sides[1] = sides[3] = 0;
            }
        }
        for (i64 i = 0; i < L; i++) {
            const u64 *digit = x + i * n;
            if (i != j) {
                const i64 r = L + i * L + (j > i ? j - 1 : j);
                lift_row(coeff + i * n, row, n, plan->q[i], m.q);
                t1 = tick_now(ticks);
                lift_ns += t1 - t0;
                i64 ns = check_row(check, 1, j, r, 0, row, n, ticks);
                plan_fwd(plan, j, n, row, lanes, row);
                ns += check_row(check, 1, j, r, 1, row, n, ticks);
                t0 = tick_now(ticks);
                ntt_ns += t0 - t1 - ns;
                check_ns += ns;
                digit = row;
            }
            const i64 key_row = (2 * i * K + keep[j]) * n;
            for (i64 g = 0; g < G; g++) {
                const i64 out = (g * (L + 1) + j) * n;
                const u64 *rows = keys[g] + key_row;
                mac_row(acc0 + out, acc1 + out, digit, tables ? tables[g] : 0,
                        rows, rows + K * n, n, m, lazy);
            }
            t1 = tick_now(ticks);
            mac_ns += t1 - t0;
            t0 = t1;
            if (check) {
                spare_reduce(dq, digit, n, ms);
                for (i64 g = 0; g < G; g++) {
                    const u32 *image = check->key_images[g] + key_row;
                    spare_row(check->spare + 4 * (g * (L + 1) + j), dq,
                              tables ? tables[g] : 0, image, image + K * n, n,
                              ms);
                }
                t0 = tick_now(ticks);
                check_ns += t0 - t1;
            }
        }
        for (i64 g = 0; g < G; g++) {
            const i64 out = (g * (L + 1) + j) * n;
            if (check) {
                u64 *sides = check->spare + 4 * (g * (L + 1) + j);
                sides[0] = spare_sum(acc0 + out, n, ms);
                sides[2] = spare_sum(acc1 + out, n, ms);
                t1 = tick_now(ticks);
                check_ns += t1 - t0;
                t0 = t1;
            }
            mac_finish(acc0 + out, acc1 + out, n, m, lazy);
        }
        mac_ns += tick_now(ticks) - t0;
        tick_add(ticks, 1, lift_ns);
        tick_add(ticks, 2, ntt_ns);
        tick_add(ticks, 3, mac_ns);
        tick_add(ticks, 4, check_ns);
    }
}

/* The drop's finish of one remaining limb: o = (x - o) q_top^{-1}
 * mod q, o the forward NTT of the lifted top row (reduced), scale =
 * q_top^{-1} mod q with its Shoup companion taken here.  x is read as
 * it comes: a row with a word >= q takes the loop that folds each word
 * first. */
static inline u32 drop_word(u32 v, u32 o, u32 q, u32 scale, u32 scale_sh) {
    return csub(shoup_mul_lazy(csub(v + q - o, q), scale, scale_sh, q), q);
}

ROW_KERNEL
static void drop_finish(const u64 *restrict x, u64 *restrict o, i64 n, u32 q,
                        u32 scale) {
    const u32 scale_sh = (u32)(((u64)scale << 32) / q);
    u64 wide = 0;
    for (i64 k = 0; k < n; k++) wide |= x[k] >= q;
    if (wide) {
        const modulus_t m = modulus_of(q);
        for (i64 k = 0; k < n; k++)
            o[k] = drop_word(fold(x[k], m), (u32)o[k], q, scale, scale_sh);
    } else {
        for (i64 k = 0; k < n; k++)
            o[k] = drop_word((u32)x[k], (u32)o[k], q, scale, scale_sh);
    }
}

/* One row of the tensor product, every product a w-bit Barrett
 * (mulmod) of the operands' 32-bit words.  Its own function, with
 * restrict rows: inside the OpenMP body the loop did not vectorize. */
ROW_KERNEL
static void tensor_row(const u64 *restrict a0, const u64 *restrict a1,
                       const u64 *restrict b0, const u64 *restrict b1,
                       u64 *restrict d0, u64 *restrict d1, u64 *restrict d2,
                       i64 n, u64 q) {
    const modulus_t m = modulus_of(q);
    for (i64 k = 0; k < n; k++) {
        const u32 x0 = (u32)a0[k], x1 = (u32)a1[k];
        const u32 y0 = (u32)b0[k], y1 = (u32)b1[k];
        d0[k] = mulmod(x0, y0, m);
        d1[k] = csub(mulmod(x0, y1, m) + mulmod(x1, y0, m), m.q);
        d2[k] = mulmod(x1, y1, m);
    }
}

/* ------------------------------------------------------------------ */
/* Drop the top limb with rounding, (x - [x]_top) / q_top, in one     */
/* call: the CKKS rescale and the special-prime ModDown.              */
/*                                                                    */
/* x: (R, n) evaluation-domain rows through the R plan rows; out:     */
/* (R - 1, n), evaluation domain.  inv[j] = q_top^{-1} mod q_j.       */
/* work: one row, the top coefficient row.  scratch: (R - 1, n)      */
/* 32-bit lanes, one row per remaining limb (the first also serves    */
/* the top row's inverse).  The NTT is linear, so only the top row is */
/* inverse-transformed; remaining limb j lifts it centered (lift_row's */
/* gate, against every remaining prime), forward-NTTs the lift in its */
/* output row and finishes there -- out_j = inv[j] * (x_j -           */
/* NTT_j(lift)): R row NTTs, not 2 R - 1.                             */
/*                                                                    */
/* check: NULL, or the integrity sums of the R row NTTs: the top      */
/* row's inverse at 0, remaining limb j's forward row at 1 + j (the   */
/* element-wise finish is outside the brackets).                      */
/* ------------------------------------------------------------------ */
ROW_KERNEL
void repro_drop_top_limb(const plan_t *plan, const u64 *x, const u64 *inv,
                         u64 *out, u64 *work, u32 *scratch, i64 R, i64 n,
                         const check_t *check) {
    const i64 t = R - 1;
    u64 *top = work;
    check_row(check, 0, t, 0, 0, x + t * n, n, 0);
    plan_inv(plan, t, n, x + t * n, scratch, top);
    check_row(check, 0, t, 0, 1, top, n, 0);
    const u64 q_top = plan->q[t];
    const i64 par_rows = R - 1;
    PARALLEL_LIMBS
    for (i64 j = 0; j < par_rows; j++) {
        u64 *o = out + j * n;
        lift_row(top, o, n, q_top, plan->q[j]);
        check_row(check, 1, j, 1 + j, 0, o, n, 0);
        plan_fwd(plan, j, n, o, scratch + j * n, o);
        check_row(check, 1, j, 1 + j, 1, o, n, 0);
        drop_finish(x + j * n, o, n, (u32)plan->q[j], (u32)inv[j]);
    }
}

/* Tensor product of two 2-part ciphertexts, (L, n) rows through the
 * L plan rows: d0 = a0 b0, d1 = a0 b1 + a1 b0, d2 = a1 b1, operands
 * (reduced words) read once. */
void repro_tensor(const plan_t *plan, const u64 *a0, const u64 *a1,
                  const u64 *b0, const u64 *b1, u64 *d0, u64 *d1, u64 *d2,
                  i64 L, i64 n) {
    const i64 par_rows = L;
    PARALLEL_LIMBS
    for (i64 l = 0; l < par_rows; l++) {
        const i64 k = l * n;
        tensor_row(a0 + k, a1 + k, b0 + k, b1 + k, d0 + k, d1 + k, d2 + k, n,
                   plan->q[l]);
    }
}
