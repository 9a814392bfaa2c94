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
 * gram_product (see recovery._smooth_part) multiplies those counts by a
 * float vector on the calling thread, summing each row in 8 lanes in a
 * fixed order and adding the lanes in a fixed order, so it gives the same
 * bits on every processor and at any thread count.
 */
#include <math.h>
#include <stdint.h>
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
