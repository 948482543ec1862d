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
 * The row kernels (``ROW_KERNEL``: ``fwd_row``, ``inv_row`` and the
 * entries whose row loops inline ``mac_row`` / ``lift_row`` --
 * ``repro_ks_apply``, ``repro_drop_top_limb``, ``repro_tensor``,
 * ``repro_auto_batch``) carry three GCC ``target_clones``: baseline
 * x86-64, x86-64-v3 (AVX2) and x86-64-v4 (AVX-512).  The ifunc resolver
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
 * The arithmetic mirrors the analyzed numpy stage plans line for line
 * (``repro.analysis.stage_plans``), so the eligibility gates derived
 * there (``repro.analysis.bounds``) carry over.  Which schedule a plan's
 * kernels run is decided once, where the plan is built
 * (``repro/ntt/negacyclic.py``, the batch plan the numpy path walks
 * too), and read here from ``plan_t`` -- no plan-taking entry has a
 * schedule argument a caller could set:
 *
 * - Shoup butterflies (``*_sh`` tables, 2**32 radix) in every NTT:
 *   ``ntt_shoup_ok`` holds for every host prime (q < 2**30), and a plan
 *   is refused for a wider one;
 * - the clamp-free inverse schedule only under ``unclamped_dit_ok``;
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
typedef unsigned __int128 u128;

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

/* Barrett reduction of an arbitrary uint64 value z modulo q, with the
 * precomputed constant mu = floor(2**64 / q).  The estimate
 * floor(z * mu / 2**64) undershoots floor(z / q) by at most 2, so the
 * correction loop runs at most twice. */
static inline u64 barrett_mod(u64 z, u64 q, u64 mu) {
    u64 est = (u64)(((u128)z * mu) >> 64);
    u64 r = z - est * q;
    while (r >= q) r -= q;
    return r;
}

/* Shoup multiplication x * w mod q, lazily in [0, 2q).  w_sh is the
 * precomputed companion floor(w * 2**32 / q); requires q < 2**30 and
 * x below the 2**32 precision radix (the S002/S003 preconditions the
 * analyzer checks). */
static inline u64 shoup_mul_lazy(u64 x, u64 w, u64 w_sh, u64 q) {
    u64 est = (x * w_sh) >> 32;
    return x * w - est * q;
}

/* ------------------------------------------------------------------ */
/* One row of the forward negacyclic NTT, all stages fused -- the only */
/* forward butterfly loops in this file.                               */
/*                                                                    */
/* x: n input words; a: n words of scratch; o: n output words (o may  */
/* alias x: the psi fold consumes x before o is written).  ps/ps_sh:  */
/* the row's psi folding table.  tw/tw_sh: its flattened DIF stage    */
/* twiddles (lengths n/2, n/4, .., 1 concatenated -> n - 1 entries).  */
/* bitrev: the length-n involution undoing the DIF output order.      */
/* Every product is a mod-free Shoup product (gate: ntt_shoup_ok).    */
/* Out of line: inlined into a row loop, gcc 12 -O3 -fopenmp spilled  */
/* a butterfly product to the stack (a ~8 % slower forward NTT).      */
/* ------------------------------------------------------------------ */
ROW_KERNEL
static void fwd_row(const u64 *x, u64 *a, u64 *o, i64 n, u64 q,
                    const u64 *ps, const u64 *ps_sh,
                    const u64 *tw, const u64 *tw_sh, const i64 *bitrev) {
    const u64 two_q = 2 * q;

    /* psi fold: x * psi^j, into [0, 2q).  The loop that vectorizes
     * notes whether the row had a word >= q; only such a row is folded
     * again, reducing those words by `%` first. */
    u64 wide = 0;
    for (i64 i = 0; i < n; i++) {
        wide |= x[i] >= q;
        a[i] = shoup_mul_lazy(x[i], ps[i], ps_sh[i], q);
    }
    if (wide) {
        for (i64 i = 0; i < n; i++) {
            u64 v = x[i];
            if (v >= q) v %= q;
            a[i] = shoup_mul_lazy(v, ps[i], ps_sh[i], q);
        }
    }

    /* Gentleman-Sande DIF stages, lazy (< 2q lanes throughout). */
    i64 toff = 0;
    for (i64 len = n >> 1; len >= 2; len >>= 1) {
        const u64 *wt = tw + toff;
        const u64 *wt_sh = tw_sh + toff;
        for (i64 start = 0; start < n; start += 2 * len) {
            u64 *pu = a + start;
            u64 *pv = a + start + len;
            for (i64 j = 0; j < len; j++) {
                u64 u = pu[j], v = pv[j];
                u64 t = u + v; /* < 4q */
                if (t >= two_q) t -= two_q;
                u64 d = u + two_q - v; /* < 4q < 2**32 */
                pu[j] = t;
                pv[j] = shoup_mul_lazy(d, wt[j], wt_sh[j], q);
            }
        }
        toff += len;
    }
    /* Last stage (len == 1): the single twiddle is omega**0 == 1
     * for every prime -- skip the product, clamp the difference. */
    if (n >= 2) {
        for (i64 start = 0; start < n; start += 2) {
            u64 u = a[start], v = a[start + 1];
            u64 t = u + v;
            if (t >= two_q) t -= two_q;
            u64 d = u + two_q - v;
            if (d >= two_q) d -= two_q;
            a[start] = t;
            a[start + 1] = d;
        }
    }

    /* Undo the DIF output order (bit reversal is an involution: a
     * gather with the same table) and finish the < q reduction. */
    for (i64 i = 0; i < n; i++) {
        u64 t = a[bitrev[i]];
        if (t >= q) t -= q;
        o[i] = t;
    }
}

/* ------------------------------------------------------------------ */
/* One row of the inverse negacyclic NTT, all stages fused -- the only */
/* inverse butterfly loops in this file.                               */
/*                                                                    */
/* x/a/o as in fwd_row (o may alias x: the bit-reversal gather        */
/* consumes x first).  tw/tw_sh: flattened DIT stage twiddles         */
/* (lengths 1, 2, .., n/2).  uf/uf_sh: the fused psi^{-j} * n^{-1}    */
/* table.  mode: 1 = lazy Shoup (gate: ntt_shoup_ok), 2 = clamp-free  */
/* (gate: unclamped_dit_ok; its products are Barrett-reduced).        */
/* ------------------------------------------------------------------ */
ROW_KERNEL
static void inv_row(const u64 *x, u64 *a, u64 *o, i64 n,
                    u64 q, u64 mu,
                    const u64 *tw, const u64 *tw_sh,
                    const u64 *uf, const u64 *uf_sh,
                    const i64 *bitrev, int mode) {
    const u64 two_q = 2 * q;

    /* Natural order -> bit-reversed DIT input, reduced < q. */
    for (i64 i = 0; i < n; i++) {
        u64 v = x[bitrev[i]];
        if (v >= q) v %= q;
        a[i] = v;
    }

    i64 toff = 0;
    if (mode == 2) {
        /* Clamp-free schedule: lanes grow by exactly +q per stage
         * (the twiddled half is freshly reduced); the gate proved
         * every intermediate, including the fused unfold product
         * below, fits uint64. */
        for (i64 len = 1; len < n; len <<= 1) {
            const u64 *wt = tw + toff;
            for (i64 start = 0; start < n; start += 2 * len) {
                u64 *pu = a + start;
                u64 *pv = a + start + len;
                if (len == 1) {
                    /* Stage 0 twiddle is omega**0 == 1. */
                    u64 u = pu[0], v = pv[0];
                    pu[0] = u + v;
                    pv[0] = u + q - v;
                } else {
                    for (i64 j = 0; j < len; j++) {
                        u64 u = pu[j];
                        u64 v = barrett_mod(pv[j] * wt[j], q, mu);
                        pu[j] = u + v;
                        pv[j] = u + q - v;
                    }
                }
            }
            toff += len;
        }
        for (i64 i = 0; i < n; i++)
            o[i] = barrett_mod(a[i] * uf[i], q, mu);
    } else {
        /* Lazy Shoup schedule: < 2q lanes, mod-free twiddle
         * products, Shoup unfold plus one conditional subtract. */
        for (i64 len = 1; len < n; len <<= 1) {
            const u64 *wt = tw + toff;
            const u64 *wt_sh = tw_sh + toff;
            for (i64 start = 0; start < n; start += 2 * len) {
                u64 *pu = a + start;
                u64 *pv = a + start + len;
                for (i64 j = 0; j < len; j++) {
                    u64 u = pu[j];
                    u64 vin = pv[j];
                    u64 v = (len == 1)
                                ? vin
                                : shoup_mul_lazy(vin, wt[j], wt_sh[j], q);
                    u64 t = u + v;
                    if (t >= two_q) t -= two_q;
                    u64 d = u + two_q - v;
                    if (d >= two_q) d -= two_q;
                    pu[j] = t;
                    pv[j] = d;
                }
            }
            toff += len;
        }
        for (i64 i = 0; i < n; i++) {
            u64 r = shoup_mul_lazy(a[i], uf[i], uf_sh[i], q);
            if (r >= q) r -= q;
            o[i] = r;
        }
    }
}

/* One (n, primes) plan (repro/ntt/negacyclic.py): its constant tables,
 * row l modulo q[l] -- n words per row in psi/unfold, n - 1 in the flat
 * stage twiddles, each with its Shoup companion (*_sh) -- and the
 * reduction schedule the gates proved for it.  Field order is the
 * ctypes mirror's (cext.PlanTables). */
typedef struct {
    const u64 *q, *mu;
    const u64 *psi, *psi_sh;
    const u64 *twf, *twf_sh;
    const u64 *twi, *twi_sh;
    const u64 *unfold, *unfold_sh;
    const i64 *bitrev;
    int inv_mode; /* inverse schedule, as inv_row's mode */
    int ks_lazy;  /* repro_ks_apply: 1 unreduced accumulator */
} plan_t;

static inline void plan_fwd(const plan_t *p, i64 l, i64 n, const u64 *x,
                            u64 *a, u64 *o) {
    fwd_row(x, a, o, n, p->q[l], p->psi + l * n, p->psi_sh + l * n,
            p->twf + l * (n - 1), p->twf_sh + l * (n - 1), p->bitrev);
}

static inline void plan_inv(const plan_t *p, i64 l, i64 n, const u64 *x,
                            u64 *a, u64 *o) {
    inv_row(x, a, o, n, p->q[l], p->mu[l],
            p->twi + l * (n - 1), p->twi_sh + l * (n - 1),
            p->unfold + l * n, p->unfold_sh + l * n, p->bitrev, p->inv_mode);
}

/* ------------------------------------------------------------------ */
/* Batched transforms: in/out/work (L, n) row-major, row l through    */
/* plan row l.                                                         */
/* ------------------------------------------------------------------ */
void repro_fwd_ntt_batch(const plan_t *plan, const u64 *in, u64 *out,
                         u64 *work, i64 L, i64 n) {
    const i64 par_rows = L;
    PARALLEL_LIMBS
    for (i64 l = 0; l < par_rows; l++)
        plan_fwd(plan, l, n, in + l * n, work + l * n, out + l * n);
}

void repro_inv_ntt_batch(const plan_t *plan, const u64 *in, u64 *out,
                         u64 *work, i64 L, i64 n) {
    const i64 par_rows = L;
    PARALLEL_LIMBS
    for (i64 l = 0; l < par_rows; l++)
        plan_inv(plan, l, n, in + l * n, work + l * n, out + l * n);
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
/* final Barrett reduction to mac_finish (gate:                       */
/* keyswitch_lazy_accumulate_ok); otherwise every product is          */
/* Barrett-reduced as it is added and the running sum is kept < q     */
/* with a conditional subtract.                                        */
/* ------------------------------------------------------------------ */
static inline void mac_clear(u64 *s0, u64 *s1, i64 n) {
    for (i64 k = 0; k < n; k++) {
        s0[k] = 0;
        s1[k] = 0;
    }
}

static inline void mac_row(u64 *s0, u64 *s1, const u64 *dd, const i64 *src,
                           const u64 *bb, const u64 *aa, i64 n, u64 q, u64 mu,
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
            u64 t0 = s0[k] + barrett_mod(d * bb[k], q, mu);
            if (t0 >= q) t0 -= q;
            u64 t1 = s1[k] + barrett_mod(d * aa[k], q, mu);
            if (t1 >= q) t1 -= q;
            s0[k] = t0;
            s1[k] = t1;
        }
    }
}

static inline void mac_finish(u64 *s0, u64 *s1, i64 n, u64 q, u64 mu,
                              int lazy) {
    if (!lazy) return;
    for (i64 k = 0; k < n; k++) {
        s0[k] = barrett_mod(s0[k], q, mu);
        s1[k] = barrett_mod(s1[k], q, mu);
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
                    const u64 *q_arr, const u64 *mu_arr, int lazy) {
    const i64 par_rows = R;
    PARALLEL_LIMBS
    for (i64 r = 0; r < par_rows; r++) {
        const u64 q = q_arr[r], mu = mu_arr[r];
        u64 *s0 = acc0 + r * n;
        u64 *s1 = acc1 + r * n;
        mac_clear(s0, s1, n);
        for (i64 d = 0; d < D; d++)
            mac_row(s0, s1, digits + (d * R + r) * n, 0,
                    bstack + d * key_stride + r * n,
                    astack + d * key_stride + r * n, n, q, mu, lazy);
        mac_finish(s0, s1, n, q, mu, lazy);
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
static inline void spare_reduce(u32 *dq, const u64 *dd, i64 n, u64 qs,
                                u64 mus) {
    for (i64 k = 0; k < n; k++)
        dq[k] = (u32)barrett_mod(dd[k], qs, mus);
}

/* The spare-modulus channel of one digit row, beside mac_row and over
 * the row it read (through the same src): the dot products of the
 * digit mod qs with the b image and with the a image, each reduced and
 * added to its accumulator's channel side, sides[1] / sides[3].  Both
 * factors are below qs < 2**20 and checksum_ok bounds n by 2**17, so a
 * row's dot product stays unreduced. */
static inline void spare_row(u64 *sides, const u32 *dq, const i64 *src,
                             const u32 *ib, const u32 *ia, i64 n, u64 qs,
                             u64 mus) {
    u64 t0 = 0, t1 = 0;
    for (i64 k = 0; k < n; k++) {
        const u64 d = dq[src ? src[k] : k];
        t0 += d * ib[k];
        t1 += d * ia[k];
    }
    sides[1] += barrett_mod(t0, qs, mus);
    sides[3] += barrett_mod(t1, qs, mus);
}

/* The accumulator side of a spare check: the unreduced accumulator
 * reduced mod qs word by word and summed (n words below 2**20: exact). */
static inline u64 spare_sum(const u64 *acc, i64 n, u64 qs, u64 mus) {
    u64 sum = 0;
    for (i64 k = 0; k < n; k++) sum += barrett_mod(acc[k], qs, mus);
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
/* tables[g][k] of x.  acc0/acc1: (G, L + 1, n) outputs.  coeff:      */
/* (L, n) scratch for the coefficient rows; work: two scratch rows    */
/* per target limb.                                                   */
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
                    u64 *acc0, u64 *acc1, u64 *coeff, u64 *work,
                    i64 L, i64 K, i64 n, i64 *ticks, const check_t *check) {
    const int lazy = plan->ks_lazy;
    const u64 qs = check ? check->spare_q : 0;
    const u64 mus = check ? ~(u64)0 / qs : 0; /* qs is odd: floor(2**64 / qs) */
    i64 par_rows = L;
    PARALLEL_LIMBS
    for (i64 l = 0; l < par_rows; l++) {
        i64 check_ns = check_row(check, 0, l, l, 0, x + l * n, n, ticks);
        const i64 t0 = tick_now(ticks);
        plan_inv(plan, l, n, x + l * n, work + l * n, coeff + l * n);
        tick_add(ticks, 0, tick_now(ticks) - t0);
        check_ns += check_row(check, 0, l, l, 1, coeff + l * n, n, ticks);
        tick_add(ticks, 4, check_ns);
    }

    par_rows = L + 1;
    PARALLEL_LIMBS
    for (i64 j = 0; j < par_rows; j++) {
        const u64 q = plan->q[j], mu = plan->mu[j];
        u64 *row = work + 2 * j * n;
        u32 *dq = (u32 *)(row + n); /* digit mod qs, in the NTT's scratch */
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
                lift_row(coeff + i * n, row, n, plan->q[i], q);
                t1 = tick_now(ticks);
                lift_ns += t1 - t0;
                i64 ns = check_row(check, 1, j, r, 0, row, n, ticks);
                plan_fwd(plan, j, n, row, row + n, row);
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
                        rows, rows + K * n, n, q, mu, lazy);
            }
            t1 = tick_now(ticks);
            mac_ns += t1 - t0;
            t0 = t1;
            if (check) {
                spare_reduce(dq, digit, n, qs, mus);
                for (i64 g = 0; g < G; g++) {
                    const u32 *image = check->key_images[g] + key_row;
                    spare_row(check->spare + 4 * (g * (L + 1) + j), dq,
                              tables ? tables[g] : 0, image, image + K * n, n,
                              qs, mus);
                }
                t0 = tick_now(ticks);
                check_ns += t0 - t1;
            }
        }
        for (i64 g = 0; g < G; g++) {
            const i64 out = (g * (L + 1) + j) * n;
            if (check) {
                u64 *sides = check->spare + 4 * (g * (L + 1) + j);
                sides[0] = spare_sum(acc0 + out, n, qs, mus);
                sides[2] = spare_sum(acc1 + out, n, qs, mus);
                t1 = tick_now(ticks);
                check_ns += t1 - t0;
                t0 = t1;
            }
            mac_finish(acc0 + out, acc1 + out, n, q, mu, lazy);
        }
        mac_ns += tick_now(ticks) - t0;
        tick_add(ticks, 1, lift_ns);
        tick_add(ticks, 2, ntt_ns);
        tick_add(ticks, 3, mac_ns);
        tick_add(ticks, 4, check_ns);
    }
}

/* ------------------------------------------------------------------ */
/* Drop the top limb with rounding, (x - [x]_top) / q_top, in one     */
/* call: the CKKS rescale and the special-prime ModDown.              */
/*                                                                    */
/* x: (R, n) evaluation-domain rows through the R plan rows; out:     */
/* (R - 1, n), evaluation domain.  inv[j] = q_top^{-1} mod q_j.       */
/* work: (R, n) scratch, the top coefficient row first.  The NTT is   */
/* linear, so only the top row is inverse-transformed; remaining limb */
/* j lifts it centered (lift_row's gate, against every remaining      */
/* prime), forward-NTTs the lift in its output row and finishes there */
/* -- out_j = inv[j] * (x_j - NTT_j(lift)): R row NTTs, not 2 R - 1.  */
/*                                                                    */
/* check: NULL, or the integrity sums of the R row NTTs: the top      */
/* row's inverse at 0, remaining limb j's forward row at 1 + j (the   */
/* element-wise finish is outside the brackets).                      */
/* ------------------------------------------------------------------ */
ROW_KERNEL
void repro_drop_top_limb(const plan_t *plan, const u64 *x, const u64 *inv,
                         u64 *out, u64 *work, i64 R, i64 n,
                         const check_t *check) {
    const i64 t = R - 1;
    u64 *top = work;
    check_row(check, 0, t, 0, 0, x + t * n, n, 0);
    plan_inv(plan, t, n, x + t * n, work + n, top);
    check_row(check, 0, t, 0, 1, top, n, 0);
    const u64 q_top = plan->q[t];
    const i64 par_rows = R - 1;
    PARALLEL_LIMBS
    for (i64 j = 0; j < par_rows; j++) {
        const u64 q = plan->q[j], mu = plan->mu[j], scale = inv[j];
        u64 *o = out + j * n;
        lift_row(top, o, n, q_top, q);
        check_row(check, 1, j, 1 + j, 0, o, n, 0);
        plan_fwd(plan, j, n, o, work + (1 + j) * n, o);
        check_row(check, 1, j, 1 + j, 1, o, n, 0);
        for (i64 k = 0; k < n; k++) {
            u64 v = x[j * n + k];
            if (v >= q) v %= q;
            u64 s = v + (q - o[k]); /* < 2q: one conditional subtract */
            if (s >= q) s -= q;
            o[k] = barrett_mod(s * scale, q, mu);
        }
    }
}

/* Tensor product of two 2-part ciphertexts, (L, n) rows through the
 * L plan rows: d0 = a0 b0, d1 = a0 b1 + a1 b0, d2 = a1 b1, operands
 * read once.  A product of two reduced words below 2**30 fits uint64. */
ROW_KERNEL
void repro_tensor(const plan_t *plan, const u64 *a0, const u64 *a1,
                  const u64 *b0, const u64 *b1, u64 *d0, u64 *d1, u64 *d2,
                  i64 L, i64 n) {
    const i64 par_rows = L;
    PARALLEL_LIMBS
    for (i64 l = 0; l < par_rows; l++) {
        const u64 q = plan->q[l], mu = plan->mu[l];
        for (i64 k = l * n; k < (l + 1) * n; k++) {
            const u64 x0 = a0[k], x1 = a1[k], y0 = b0[k], y1 = b1[k];
            u64 s = barrett_mod(x0 * y1, q, mu) + barrett_mod(x1 * y0, q, mu);
            d0[k] = barrett_mod(x0 * y0, q, mu);
            d1[k] = s >= q ? s - q : s;
            d2[k] = barrett_mod(x1 * y1, q, mu);
        }
    }
}
