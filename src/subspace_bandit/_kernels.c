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
 * of a +/-1 sketch from the signs' sign bits: two columns of m_phi signs
 * whose bits differ in h places have inner product m_phi - 2h.
 */
#include <math.h>
#include <stdint.h>

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

#if defined(__x86_64__) && defined(__GNUC__) && defined(__GLIBC__)
/* one build that uses the popcnt instruction where the processor has it
 * (the clones are chosen at load time through glibc's ifunc) */
__attribute__((target_clones("popcnt", "default")))
#endif
static void xor_popcount_gram(const uint64_t *bits, int64_t width, int64_t words,
                              int64_t m_phi, double *gram)
{
    for (int64_t p = 0; p < width; p++) {
        const uint64_t *bp = bits + p * words;
        for (int64_t q = p; q < width; q++) {
            const uint64_t *bq = bits + q * words;
            int64_t h = 0;
            for (int64_t k = 0; k < words; k++)
                h += __builtin_popcountll(bp[k] ^ bq[k]);
            gram[p * width + q] = gram[q * width + p] = (double)(m_phi - 2 * h);
        }
    }
}

/* signs: the (m_phi, m_x, d) int8 sketch, C order.  bits: (m_x * d, words)
 * with words = ceil(m_phi / 64), filled with each column's sign bits in
 * G's (d, m_x) order: direction 64 k + i sets bit i of word k when its sign
 * is negative, and padding bits stay 0.  acc: m_x * d working words, one
 * word per column while 64 rows stream through.  gram: the (d * m_x)^2
 * counts.  Returns the number of entries other than +/-1, and fills gram
 * only when there are none. */
int64_t gram_counts(const int8_t *signs, int64_t m_phi, int64_t m_x, int64_t d,
                    uint64_t *bits, uint64_t *acc, double *gram)
{
    int64_t width = m_x * d, words = (m_phi + 63) / 64, bad = 0;
    for (int64_t k = 0; k < words; k++) {
        int64_t stop = m_phi - 64 * k < 64 ? m_phi - 64 * k : 64;
        for (int64_t c = 0; c < width; c++)
            acc[c] = 0;
        for (int64_t i = 0; i < stop; i++) {
            const int8_t *row = signs + (64 * k + i) * width;
            for (int64_t c = 0; c < width; c++) {
                acc[c] |= (uint64_t)((uint8_t)row[c] >> 7) << i;
                bad += (row[c] != 1) & (row[c] != -1);
            }
        }
        /* the signs' column j * d + e is G's column e * m_x + j */
        for (int64_t j = 0; j < m_x; j++)
            for (int64_t e = 0; e < d; e++)
                bits[(e * m_x + j) * words + k] = acc[j * d + e];
    }
    if (bad == 0)
        xor_popcount_gram(bits, width, words, m_phi, gram);
    return bad;
}
