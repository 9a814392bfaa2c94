/* The package's compiled kernels, built and loaded by _kernels.py.
 *
 * phase2_rounds (see bandit.run_phase2) plays UCB-1 rounds [t0, t1) and
 * carries its state across calls: counts, means, bounds, and the open
 * block's hi and end.  Rounds 0..n_arms-1 pull each arm once, in order.
 * Afterwards a block of up to `block` rounds opens by setting hi to the
 * largest 2 log s over its rounds s and bounding every arm's index at hi.
 * Each rounded step of an index (divide, sqrt, times scale, plus mean) is
 * monotone, so an arm's index in any round of the block is at most its
 * bound until it is pulled; a pulled arm's bound is recomputed at hi.  A
 * round scans the arms in ascending order, skips each whose bound does not
 * exceed the running best, and evaluates the others in numpy's operation
 * order; a strictly greater value wins, so the winner is numpy's first
 * argmax.  No step assumes log is monotone.  Build with -ffp-contract=off
 * so that no product and sum fuse into one rounding.
 *
 * gram_counts (see sampling.SamplingSets.gram) computes the integer S^T S
 * of a +/-1 sketch from its packed sign bits, as int32: two columns of
 * m_phi signs whose bits differ in h places have inner product m_phi - 2h.
 * It gathers each column's bits by 64 x 64 bit-block transposes of 64-bit
 * runs of the row-major bits, in portable C, then counts each pair of
 * columns in one of two loops, chosen by the processor at the call:
 * AVX-512 VPOPCNTDQ over 4-row tiles where it is present (x86-64 with glibc
 * and GCC or Clang), else a scalar popcount loop.  Both give the same
 * integers.
 *
 * gram_product multiplies those counts by a float vector on the calling
 * thread, summing each row in 8 lanes in a fixed order and adding the
 * lanes in a fixed order, so it gives the same bits on every processor and
 * at any thread count.
 *
 * fista_round (see recovery.solve_dantzig) runs one continuation round of
 * the Dantzig solve: FISTA with backtracking, gradient restart and the
 * iterate-change stop, its residual from the Gram counts (tall sketches)
 * or the flat operator (wide ones), every inner product in dot8's fixed
 * order.  Its prox is threshold_singular, singular value soft-thresholding
 * by Golub-Kahan bidiagonalization and implicit-shift QR that accumulates
 * only the right vectors; svt exposes it with its own scratch.  Nothing in
 * a round calls a BLAS or LAPACK.
 */
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#if defined(__x86_64__) && defined(__GNUC__) && defined(__GLIBC__)
#define X86_GLIBC 1
#include <immintrin.h>
#else
#define X86_GLIBC 0
#endif

void phase2_rounds(int64_t t0, int64_t t1, const double *noise, int64_t n2,
                   int64_t block, int64_t n_arms, double scale,
                   const double *arm_means, int64_t *counts, double *means,
                   double *bounds, double *hi, int64_t *end, int64_t *arm_ids)
{
    for (int64_t t = t0; t < t1; t++) {
        int64_t arm = t;
        if (t >= n_arms) {
            if (t == *end) {
                int64_t stop = n2 - t > block ? t + block : n2;
                double top = 2.0 * log((double)t);
                for (int64_t s = t + 1; s < stop; s++) {
                    double two_log_s = 2.0 * log((double)s);
                    if (two_log_s > top)
                        top = two_log_s;
                }
                for (int64_t a = 0; a < n_arms; a++)
                    bounds[a] = sqrt(top / (double)counts[a]) * scale + means[a];
                *hi = top;
                *end = stop;
            }
            double two_log_t = 2.0 * log((double)t);
            double best = -INFINITY;
            arm = 0;
            for (int64_t a = 0; a < n_arms; a++) {
                if (bounds[a] <= best)
                    continue;
                double value = sqrt(two_log_t / (double)counts[a]) * scale + means[a];
                if (value > best) {
                    best = value;
                    arm = a;
                }
            }
        }
        double reward = arm_means[arm] + noise[t - t0];
        int64_t count = ++counts[arm];
        means[arm] += (reward - means[arm]) / (double)count;
        bounds[arm] = sqrt(*hi / (double)count) * scale + means[arm];
        arm_ids[t] = arm;
    }
}

/* The 64 x 64 bit matrix a[i] bit c, transposed in place to a[c] bit i:
 * each round swaps the off-diagonal j x j blocks of every 2j x 2j block
 * (Warren, Hacker's Delight, ch. 7). */
static void transpose64(uint64_t a[64])
{
    uint64_t m = 0x00000000FFFFFFFFu;
    for (int j = 32; j != 0; j >>= 1, m ^= m << j) {
        for (int k = 0; k < 64; k = ((k | j) + 1) & ~j) {
            uint64_t t = ((a[k] >> j) ^ a[k | j]) & m;
            a[k] ^= t << j;
            a[k | j] ^= t;
        }
    }
}

/* The 64 bits t..t+63 of the row-major sign bits (np.unpackbits order:
 * bit t is bit 7 - t % 8 of byte t / 8), bit t in the word's top bit.
 * Bytes past the last, nbytes, read as 0. */
static uint64_t run64(const uint8_t *bytes, int64_t nbytes, int64_t t)
{
    int64_t at = t >> 3;
    int shift = (int)(t & 7);
    uint8_t part[9] = {0};
    const uint8_t *p = bytes + at;
    if (nbytes - at < 9) {
        memcpy(part, p, (size_t)(nbytes - at));
        p = part;
    }
    uint64_t x;
    memcpy(&x, p, 8);
#if !defined(__BYTE_ORDER__) || __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    x = __builtin_bswap64(x);
#endif
    return shift == 0 ? x : x << shift | p[8] >> (8 - shift);
}

/* Fills columns (see gram_counts) from the sign bits, 64 directions x 64
 * columns at a time: each row's 64 bits are one run, and the block is
 * transposed into one word per column.  Column c0 + c sits at bit 63 - c
 * of a run, so after the transpose it is word 63 - c. */
static void pack_columns(const uint8_t *bits, int64_t m_phi, int64_t m_x, int64_t d,
                         int64_t words, uint64_t *columns)
{
    int64_t width = m_x * d, nbytes = (m_phi * width + 7) / 8;
    uint64_t block[64];
    for (int64_t k = 0; k < words; k++) {
        int64_t rows = m_phi - 64 * k < 64 ? m_phi - 64 * k : 64;
        for (int64_t c0 = 0; c0 < width; c0 += 64) {
            int64_t cols = width - c0 < 64 ? width - c0 : 64;
            for (int64_t i = 0; i < rows; i++)
                block[i] = run64(bits, nbytes, (64 * k + i) * width + c0);
            for (int64_t i = rows; i < 64; i++)
                block[i] = 0;
            transpose64(block);
            /* the signs' column j * d + e is G's column e * m_x + j */
            int64_t j = c0 / d, e = c0 % d;
            for (int64_t c = 0; c < cols; c++) {
                columns[(e * m_x + j) * words + k] = block[63 - c];
                if (++e == d) {
                    e = 0;
                    j++;
                }
            }
        }
    }
}

/* The pair loops fill G's upper triangle, row by row, with the counts
 * m_phi - 2 popcount(b_p XOR b_q) of bits' columns p <= q. */

#if X86_GLIBC
/* one build that uses the popcnt instruction where the processor has it
 * (the clones are chosen at load time through glibc's ifunc) */
__attribute__((target_clones("popcnt", "default")))
#endif
void gram_pairs_scalar(const uint64_t *bits, int64_t width, int64_t words, int64_t m_phi,
                       int32_t *gram)
{
    for (int64_t p = 0; p < width; p++) {
        const uint64_t *bp = bits + p * words;
        for (int64_t q = p; q < width; q++) {
            const uint64_t *bq = bits + q * words;
            int64_t h = 0;
            for (int64_t k = 0; k < words; k++)
                h += __builtin_popcountll(bp[k] ^ bq[k]);
            gram[p * width + q] = (int32_t)(m_phi - 2 * h);
        }
    }
}

#if X86_GLIBC
/* s + popcount(x XOR y), lane by lane */
static inline __attribute__((always_inline, target("avx512f,avx512vpopcntdq")))
__m512i add_xor_counts(__m512i s, __m512i x, __m512i y)
{
    return _mm512_add_epi64(s, _mm512_popcnt_epi64(_mm512_xor_si512(x, y)));
}

/* Rows p..p+3 against each column q >= p, 8 words per AVX-512 popcount,
 * so each of b_q's words is loaded once for four counts.  The last tile's
 * missing rows repeat its first and are not stored. */
__attribute__((target("avx512f,avx512vpopcntdq")))
void gram_pairs_vpopcntdq(const uint64_t *bits, int64_t width, int64_t words, int64_t m_phi,
                          int32_t *gram)
{
    int64_t full = words - words % 8;
    __mmask8 tail = (__mmask8)((1u << (words % 8)) - 1u);
    for (int64_t p = 0; p < width; p += 4) {
        int64_t rows = width - p < 4 ? width - p : 4;
        const uint64_t *b[4];
        for (int r = 0; r < 4; r++)
            b[r] = bits + (r < rows ? p + r : p) * words;
        for (int64_t q = p; q < width; q++) {
            const uint64_t *bq = bits + q * words;
            __m512i s0 = _mm512_setzero_si512(), s1 = s0, s2 = s0, s3 = s0;
            for (int64_t k = 0; k < full; k += 8) {
                __m512i x = _mm512_loadu_si512(bq + k);
                s0 = add_xor_counts(s0, x, _mm512_loadu_si512(b[0] + k));
                s1 = add_xor_counts(s1, x, _mm512_loadu_si512(b[1] + k));
                s2 = add_xor_counts(s2, x, _mm512_loadu_si512(b[2] + k));
                s3 = add_xor_counts(s3, x, _mm512_loadu_si512(b[3] + k));
            }
            if (tail != 0) {
                __m512i x = _mm512_maskz_loadu_epi64(tail, bq + full);
                s0 = add_xor_counts(s0, x, _mm512_maskz_loadu_epi64(tail, b[0] + full));
                s1 = add_xor_counts(s1, x, _mm512_maskz_loadu_epi64(tail, b[1] + full));
                s2 = add_xor_counts(s2, x, _mm512_maskz_loadu_epi64(tail, b[2] + full));
                s3 = add_xor_counts(s3, x, _mm512_maskz_loadu_epi64(tail, b[3] + full));
            }
            int64_t h[4] = {_mm512_reduce_add_epi64(s0), _mm512_reduce_add_epi64(s1),
                            _mm512_reduce_add_epi64(s2), _mm512_reduce_add_epi64(s3)};
            for (int64_t r = 0; r < rows && p + r <= q; r++)
                gram[(p + r) * width + q] = (int32_t)(m_phi - 2 * h[r]);
        }
    }
}
#endif

/* G's lower triangle from its upper one, 32 x 32 entries at a time */
static void mirror_upper(int32_t *gram, int64_t width)
{
    for (int64_t i0 = 0; i0 < width; i0 += 32) {
        int64_t i1 = width - i0 < 32 ? width : i0 + 32;
        for (int64_t j0 = 0; j0 <= i0; j0 += 32)
            for (int64_t i = i0; i < i1; i++)
                for (int64_t j = j0; j < j0 + 32 && j < i; j++)
                    gram[i * width + j] = gram[j * width + i];
    }
}

/* bits: the (m_phi, m_x, d) sketch's signs, one bit each (1 for +1) in
 * np.unpackbits order, rows not byte-aligned when m_x * d is not a multiple
 * of 8.  columns: (m_x * d, words) with words = ceil(m_phi / 64), filled
 * with each column's bits in G's (d, m_x) order: direction 64 k + i is bit
 * i of word k, and padding bits are 0.  gram: the (d * m_x)^2 counts, exact
 * in int32 for m_phi < 2^31.  The pair loop is the AVX-512 one where the
 * processor has VPOPCNTDQ, else the scalar one. */
void gram_counts(const uint8_t *bits, int64_t m_phi, int64_t m_x, int64_t d,
                 uint64_t *columns, int32_t *gram)
{
    int64_t width = m_x * d, words = (m_phi + 63) / 64;
    pack_columns(bits, m_phi, m_x, d, words, columns);
#if X86_GLIBC
    if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512vpopcntdq"))
        gram_pairs_vpopcntdq(columns, width, words, m_phi, gram);
    else
#endif
        gram_pairs_scalar(columns, width, words, m_phi, gram);
    mirror_upper(gram, width);
}

/* out = counts @ x for the (width, width) int32 counts: each row's terms
 * (double)counts[p, q] * x[q] are summed in 8 lanes, lane q % 8 in
 * ascending q, and the lanes added in one fixed tree.  Every clone the
 * compiler makes of this loop rounds each sum alike, so it gives the same
 * bits on every processor. */
#if X86_GLIBC
__attribute__((target_clones("avx2", "default")))
#endif
void gram_product(const int32_t *counts, const double *x, int64_t width, double *out)
{
    int64_t full = width - width % 8;
    for (int64_t p = 0; p < width; p++) {
        const int32_t *row = counts + p * width;
        double s[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
        for (int64_t q = 0; q < full; q += 8)
            for (int l = 0; l < 8; l++)
                s[l] += (double)row[q + l] * x[q + l];
        for (int64_t q = full; q < width; q++)
            s[q - full] += (double)row[q] * x[q];
        out[p] = ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]));
    }
}

/* sum a[q] * b[q] over q < n in 8 lanes, lane q % 8 in ascending q, the
 * lanes added in the tree of gram_product: the same bits on every
 * processor, whatever clone of the caller runs */
static inline double dot8(const double *a, const double *b, int64_t n)
{
    int64_t full = n - n % 8;
    double s[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
    for (int64_t q = 0; q < full; q += 8)
        for (int l = 0; l < 8; l++)
            s[l] += a[q + l] * b[q + l];
    for (int64_t q = full; q < n; q++)
        s[q - full] += a[q] * b[q];
    return ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]));
}

/* (c, s) with c = f / r and s = g / r for r = sqrt(f^2 + g^2), returning
 * r; (1, 0) when r is 0.  The bidiagonal is scaled to entries below 1 in
 * magnitude, so f^2 + g^2 cannot overflow. */
static double givens(double f, double g, double *c, double *s)
{
    double r = sqrt(f * f + g * g);
    if (r == 0.0) {
        *c = 1.0;
        *s = 0.0;
    } else {
        *c = f / r;
        *s = g / r;
    }
    return r;
}

/* columns i and j of the (n, n) row-major v, rotated: (v_i, v_j) ->
 * (c v_i + s v_j, c v_j - s v_i) */
static void rotate_columns(double *v, int64_t n, int64_t i, int64_t j, double c, double s)
{
    for (int64_t k = 0; k < n; k++) {
        double x = v[k * n + i], y = v[k * n + j];
        v[k * n + i] = c * x + s * y;
        v[k * n + j] = c * y - s * x;
    }
}

/* The singular values of the (m, n) row-major a, m >= n, into d, and its
 * right singular vectors into the columns of the (n, n) row-major v, with
 * e (n) as scratch; a is overwritten.  Golub & Reinsch (1970): Householder
 * reflections bring a to upper bidiagonal form (diagonal d, superdiagonal
 * e), the right ones accumulated into v, the left ones dropped; then
 * implicit-shift QR steps (Golub & Van Loan, Algorithms 8.6.1-8.6.2) with
 * the Wilkinson shift of the trailing 2 x 2 of B^T B drive e to zero,
 * rotating v's columns with B's.  An entry of e or d at most 8 ulps of
 * the bidiagonal's norm counts as zero: a step computed in squares cannot
 * resolve a coupling much below an ulp between two equal singular values,
 * and a cut at half an ulp (EISPACK's svd) was seen to stall there
 * (LAPACK's dbdsqr cuts at 10 to 100 ulps).  A zero on the diagonal is
 * chased out of its row by rotations from the left, or out of its column,
 * at the block's last row, from the right.
 * d comes back unsorted and possibly negative: |d_i| is the singular value
 * of column i of v.  Returns 0, or -1 when max_steps QR steps and chases
 * leave some e_i above the cut. */
static int bidiagonal_svd(double *a, int64_t m, int64_t n, int64_t max_steps, double *d,
                          double *e, double *v)
{
    for (int64_t j = 0; j < n; j++) {
        /* left: zero column j below the diagonal */
        double ss = 0.0;
        for (int64_t i = j; i < m; i++)
            ss += a[i * n + j] * a[i * n + j];
        d[j] = 0.0;
        if (ss > 0.0) {
            double f = a[j * n + j], beta = f >= 0.0 ? -sqrt(ss) : sqrt(ss);
            double h = f * beta - ss; /* beta (f - beta) = -|u|^2 / 2 */
            a[j * n + j] = f - beta;
            for (int64_t k = j + 1; k < n; k++) {
                double t = 0.0;
                for (int64_t i = j; i < m; i++)
                    t += a[i * n + j] * a[i * n + k];
                t /= h;
                for (int64_t i = j; i < m; i++)
                    a[i * n + k] += t * a[i * n + j];
            }
            d[j] = beta;
        }
        /* right: zero row j beyond the superdiagonal, keeping u in a's row */
        e[j] = 0.0;
        if (j + 1 >= n)
            continue;
        double *u = a + j * n;
        ss = 0.0;
        for (int64_t k = j + 1; k < n; k++)
            ss += u[k] * u[k];
        if (j + 2 == n || ss == 0.0) {
            e[j] = u[j + 1];
            u[j] = 0.0; /* no reflection at j */
            continue;
        }
        double f = u[j + 1], beta = f >= 0.0 ? -sqrt(ss) : sqrt(ss);
        double h = f * beta - ss;
        u[j + 1] = f - beta;
        u[j] = h; /* a's diagonal is done with: it keeps the reflection's h */
        for (int64_t i = j + 1; i < m; i++) {
            double *row = a + i * n;
            double t = 0.0;
            for (int64_t k = j + 1; k < n; k++)
                t += row[k] * u[k];
            t /= h;
            for (int64_t k = j + 1; k < n; k++)
                row[k] += t * u[k];
        }
        e[j] = beta;
    }
    /* v = R_0 R_1 ... R_{n-3}, applied right to left to the identity */
    memset(v, 0, (size_t)(n * n) * sizeof(double));
    for (int64_t i = 0; i < n; i++)
        v[i * n + i] = 1.0;
    for (int64_t j = n - 3; j >= 0; j--) {
        const double *u = a + j * n;
        double h = u[j];
        if (h == 0.0)
            continue;
        for (int64_t c = j + 1; c < n; c++) {
            double t = 0.0;
            for (int64_t k = j + 1; k < n; k++)
                t += u[k] * v[k * n + c];
            t /= h;
            for (int64_t k = j + 1; k < n; k++)
                v[k * n + c] += t * u[k];
        }
    }

    double norm = 0.0;
    for (int64_t i = 0; i < n; i++) {
        double x = fabs(d[i]) + fabs(e[i]);
        if (x > norm)
            norm = x;
    }
    double tol = 8.0 * DBL_EPSILON * norm;
    int64_t steps = 0;
    for (int64_t hi = n - 1; hi > 0;) {
        if (fabs(e[hi - 1]) <= tol) {
            e[hi - 1] = 0.0;
            hi--;
            continue;
        }
        if (++steps > max_steps)
            return -1;
        int64_t lo = hi - 1;
        while (lo > 0 && fabs(e[lo - 1]) > tol)
            lo--;
        if (lo > 0)
            e[lo - 1] = 0.0;
        int64_t zero = -1;
        for (int64_t i = lo; i <= hi && zero < 0; i++)
            if (fabs(d[i]) <= tol)
                zero = i;
        if (zero >= 0 && zero < hi) {
            /* rotate rows zero and j to clear f = B[zero, j], j = zero+1..hi */
            double f = e[zero], c, s;
            d[zero] = e[zero] = 0.0;
            for (int64_t j = zero + 1; j <= hi; j++) {
                d[j] = givens(d[j], f, &c, &s);
                if (j < hi) {
                    f = -s * e[j];
                    e[j] = c * e[j];
                }
            }
        } else if (zero == hi) {
            /* rotate columns j and hi to clear f = B[j, hi], j = hi-1..lo */
            double f = e[hi - 1], c, s;
            d[hi] = e[hi - 1] = 0.0;
            for (int64_t j = hi - 1; j >= lo; j--) {
                d[j] = givens(d[j], f, &c, &s);
                if (j > lo) {
                    f = -s * e[j - 1];
                    e[j - 1] = c * e[j - 1];
                }
                rotate_columns(v, n, j, hi, c, s);
            }
        } else {
            /* one QR step on B[lo..hi], shifted by the eigenvalue of the
             * trailing 2 x 2 of B^T B nearer its last diagonal entry */
            double above = hi - 1 > lo ? e[hi - 2] : 0.0;
            double t11 = d[hi - 1] * d[hi - 1] + above * above;
            double t12 = d[hi - 1] * e[hi - 1];
            double t22 = d[hi] * d[hi] + e[hi - 1] * e[hi - 1];
            double half = 0.5 * (t11 - t22);
            double root = sqrt(half * half + t12 * t12);
            double shift = t22 - t12 * t12 / (half >= 0.0 ? half + root : half - root);
            double y = d[lo] * d[lo] - shift, z = d[lo] * e[lo], c, s;
            for (int64_t k = lo; k < hi; k++) {
                /* from the right, columns k and k + 1 */
                double r = givens(y, z, &c, &s);
                if (k > lo)
                    e[k - 1] = r;
                y = c * d[k] + s * e[k];
                e[k] = c * e[k] - s * d[k];
                z = s * d[k + 1];
                d[k + 1] = c * d[k + 1];
                rotate_columns(v, n, k, k + 1, c, s);
                /* from the left, rows k and k + 1 */
                d[k] = givens(y, z, &c, &s);
                y = c * e[k] + s * d[k + 1];
                d[k + 1] = c * d[k + 1] - s * e[k];
                if (k + 1 < hi) {
                    z = s * e[k + 1];
                    e[k + 1] = c * e[k + 1];
                }
            }
            e[hi - 1] = y;
        }
    }
    return 0;
}

/* Doubles of scratch that threshold_singular needs for a (rows, cols) w. */
static int64_t svt_scratch(int64_t rows, int64_t cols)
{
    int64_t m = rows > cols ? rows : cols, n = rows > cols ? cols : rows;
    return 2 * m * n + n * n + 3 * n;
}

/* out = w V_r diag(1 - thresh / s_r) V_r^T, where s_r > thresh are the
 * singular values of the (rows, cols) row-major w and V_r their right
 * singular vectors: singular value soft-thresholding, the prox of
 * thresh * ||.||_*.  A wide w is decomposed as w^T, so the vectors are
 * min(rows, cols) long and out = U_r diag(1 - thresh / s_r) U_r^T w.  The
 * decomposition (bidiagonal_svd, at most max_steps QR steps) runs on w
 * times the power of two that brings its largest entry into [0.5, 1), an
 * exact scaling that keeps every square in range; the factors
 * (s - thresh) / s are the same at either scale.  work holds
 * svt_scratch(rows, cols) doubles.  Returns 0, or -1 when w is not finite
 * or the QR iteration does not converge. */
static int threshold_singular(int64_t rows, int64_t cols, const double *w, double thresh,
                              int64_t max_steps, double *out, double *work)
{
    int wide = rows < cols;
    int64_t m = wide ? cols : rows, n = wide ? rows : cols;
    double *a = work, *t = a + m * n, *v = t + m * n, *d = v + n * n, *e = d + n, *f = e + n;
    double big = 0.0;
    for (int64_t i = 0; i < m * n; i++) {
        double x = fabs(w[i]);
        if (!(x <= DBL_MAX))
            return -1;
        if (x > big)
            big = x;
    }
    if (big == 0.0) {
        memset(out, 0, (size_t)(m * n) * sizeof(double));
        return 0;
    }
    int exponent;
    frexp(big, &exponent);
    double scale = ldexp(1.0, -exponent);
    if (!(scale <= DBL_MAX)) /* a subnormal w: decomposed as it is */
        scale = 1.0;
    for (int64_t i = 0; i < m; i++)
        for (int64_t j = 0; j < n; j++)
            a[i * n + j] = scale * (wide ? w[j * cols + i] : w[i * cols + j]);
    if (bidiagonal_svd(a, m, n, max_steps, d, e, v) != 0)
        return -1;
    /* the kept columns of v, moved to the front, and their factors */
    double cut = scale * thresh;
    int64_t r = 0;
    for (int64_t c = 0; c < n; c++) {
        double s = fabs(d[c]);
        if (s > cut) {
            f[r] = (s - cut) / s;
            for (int64_t k = 0; k < n; k++)
                v[k * n + r] = v[k * n + c];
            r++;
        }
    }
    /* t = A V_r diag(f) for A = w (or w^T), then out = t V_r^T (or its
     * transpose) */
    for (int64_t i = 0; i < m; i++)
        for (int64_t c = 0; c < r; c++) {
            double s = 0.0;
            for (int64_t k = 0; k < n; k++)
                s += (wide ? w[k * cols + i] : w[i * cols + k]) * v[k * n + c];
            t[i * r + c] = s * f[c];
        }
    for (int64_t i = 0; i < m; i++)
        for (int64_t j = 0; j < n; j++) {
            double s = 0.0;
            for (int64_t c = 0; c < r; c++)
                s += t[i * r + c] * v[j * n + c];
            out[wide ? j * cols + i : i * cols + j] = s;
        }
    return 0;
}

/* threshold_singular with its own scratch.  Returns its status, or -2
 * when the scratch cannot be allocated. */
int svt(int64_t rows, int64_t cols, const double *w, double thresh, int64_t max_steps,
        double *out)
{
    double *work = malloc((size_t)svt_scratch(rows, cols) * sizeof(double));
    if (work == NULL)
        return -2;
    int status = threshold_singular(rows, cols, w, thresh, max_steps, out, work);
    free(work);
    return status;
}

/* r = Phi^*(y - Phi(m)), the dual residual at the flat (width) m.  Tall,
 * from the (width, width) int32 counts C = S^T S: adjoint_y - (C m) / m_phi,
 * with C m in gram_product.  Wide, from the (m_phi, width) row-major F:
 * u = y - F m with each row's product summed as dot8 does, then F^T u,
 * each entry summed over F's rows in ascending order.  tmp holds width
 * (tall) or m_phi (wide) doubles. */
static inline void dual_residual(const int32_t *counts, const double *flat, int64_t m_phi,
                                 const double *y, const double *adjoint_y, int64_t width,
                                 const double *m, double *r, double *tmp)
{
    if (counts != NULL) {
        gram_product(counts, m, width, tmp);
        for (int64_t q = 0; q < width; q++)
            r[q] = adjoint_y[q] - tmp[q] / (double)m_phi;
        return;
    }
    int64_t full = width - width % 8;
    for (int64_t i = 0; i < m_phi; i++)
        tmp[i] = y[i] - dot8(flat + i * width, m, width);
    memset(r, 0, (size_t)width * sizeof(double));
    for (int64_t i = 0; i < m_phi; i++) {
        const double *row = flat + i * width;
        double u = tmp[i];
        for (int64_t q = 0; q < full; q += 8)
            for (int l = 0; l < 8; l++)
                r[q + l] += row[q + l] * u;
        for (int64_t q = full; q < width; q++)
            r[q] += row[q] * u;
    }
}

/* One continuation round of the Dantzig solve (see recovery.solve_dantzig):
 * FISTA on tau ||M||_* + 0.5 ||Phi(M) - y||^2 from the (rows, cols) m,
 * with the step 1 / *lipschitz.  Each step p = svt(z + r(z) / L, tau / L)
 * (threshold_singular) is accepted when, for d = p - z, the curvature
 * <d, r(z) - r(p)> = ||Phi(d)||^2 exceeds L ||d||^2 by no more than
 * step_rounding ||d|| (||r(z)|| + ||r(p)|| + L ||p||); otherwise L rises to
 * max(1.05 L, curvature / ||d||^2) and the step is redone (Beck & Teboulle
 * 2009).  r (dual_residual) is evaluated once per accepted step, and r(z)
 * is extrapolated with z, since r is affine.  The momentum restarts when
 * <d, p - m> < 0 (O'Donoghue & Candes 2015), and the round stops when
 * ||p - m|| <= rel_tol max(1, ||p||) or after max_iters steps.  Every inner
 * product and norm is a dot8 sum, so the round's bits depend on neither
 * the processor nor a BLAS.  On return m holds the last iterate, r its
 * residual, *lipschitz the last L, and stats the steps taken, the steps
 * redone and whether the stop fired.  Returns 0; -1 when an SVT fails (a
 * non-finite iterate, or no convergence); -2 when no scratch could be
 * allocated; -3 when L overflows. */
#if X86_GLIBC
__attribute__((target_clones("avx2", "default")))
#endif
int fista_round(int64_t rows, int64_t cols, const int32_t *counts, const double *flat,
                int64_t m_phi, const double *y, const double *adjoint_y, double tau,
                int64_t max_iters, double rel_tol, double step_rounding, double *m, double *r,
                double *lipschitz, int64_t *stats)
{
    int64_t width = rows * cols, svt_steps = 30 * (rows < cols ? rows : cols);
    int64_t tmp_size = counts == NULL && m_phi > width ? m_phi : width;
    double *buffer = malloc((size_t)(6 * width + tmp_size + svt_scratch(rows, cols)) * sizeof(double));
    if (buffer == NULL)
        return -2;
    double *z = buffer, *r_z = z + width, *p = r_z + width, *r_p = p + width;
    double *v = r_p + width, *d = v + width, *tmp = d + width, *work = tmp + tmp_size;
    double *m_cur = m, *r_cur = r, lip = *lipschitz, t = 1.0;
    int64_t iters = 0, backtracks = 0, converged = 0;
    int status = 0;

    dual_residual(counts, flat, m_phi, y, adjoint_y, width, m_cur, r_cur, tmp);
    memcpy(z, m_cur, (size_t)width * sizeof(double));
    memcpy(r_z, r_cur, (size_t)width * sizeof(double));
    while (iters < max_iters) {
        iters++;
        for (;;) {
            double step = 1.0 / lip;
            for (int64_t q = 0; q < width; q++)
                v[q] = z[q] + step * r_z[q];
            if (threshold_singular(rows, cols, v, tau * step, svt_steps, p, work) != 0) {
                status = -1;
                goto done;
            }
            dual_residual(counts, flat, m_phi, y, adjoint_y, width, p, r_p, tmp);
            for (int64_t q = 0; q < width; q++) {
                d[q] = p[q] - z[q];
                v[q] = r_z[q] - r_p[q];
            }
            double d_sq = dot8(d, d, width), curvature = dot8(d, v, width);
            double excess = curvature - lip * d_sq;
            if (excess <= 0.0 ||
                excess <= step_rounding * sqrt(d_sq) *
                              (sqrt(dot8(r_z, r_z, width)) + sqrt(dot8(r_p, r_p, width)) +
                               lip * sqrt(dot8(p, p, width))))
                break;
            double grown = 1.05 * lip, ratio = curvature / d_sq;
            lip = ratio > grown ? ratio : grown;
            backtracks++;
            if (!(lip <= DBL_MAX)) {
                status = -3;
                goto done;
            }
        }
        for (int64_t q = 0; q < width; q++)
            v[q] = p[q] - m_cur[q]; /* the move */
        if (dot8(d, v, width) < 0.0)
            t = 1.0;
        double t_new = 0.5 * (1.0 + sqrt(1.0 + 4.0 * t * t));
        double beta = (t - 1.0) / t_new;
        for (int64_t q = 0; q < width; q++) {
            z[q] = p[q] + beta * v[q];
            r_z[q] = r_p[q] + beta * (r_p[q] - r_cur[q]);
        }
        double change = sqrt(dot8(v, v, width)), size = sqrt(dot8(p, p, width));
        double *swap = m_cur;
        m_cur = p;
        p = swap;
        swap = r_cur;
        r_cur = r_p;
        r_p = swap;
        t = t_new;
        if (change <= rel_tol * (size > 1.0 ? size : 1.0)) {
            converged = 1;
            break;
        }
    }
done:
    if (m_cur != m) {
        memcpy(m, m_cur, (size_t)width * sizeof(double));
        memcpy(r, r_cur, (size_t)width * sizeof(double));
    }
    *lipschitz = lip;
    stats[0] = iters;
    stats[1] = backtracks;
    stats[2] = converged;
    free(buffer);
    return status;
}
