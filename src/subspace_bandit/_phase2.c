/* Phase 2's UCB-1 round loop (see bandit.run_phase2).
 *
 * phase2_rounds plays rounds [t0, t1) and carries its state across calls:
 * counts, means, bounds, and the open block's hi and end.  Rounds
 * 0..n_arms-1 pull each arm once, in order.  Afterwards a block of up to
 * `block` rounds opens by setting hi to the largest 2 log s over its rounds
 * s and bounding every arm's index at hi.  Each rounded step of an index
 * (divide, sqrt, times scale, plus mean) is monotone, so an arm's index in
 * any round of the block is at most its bound until it is pulled; a pulled
 * arm's bound is recomputed at hi.  A round scans the arms in ascending
 * order, skips each whose bound does not exceed the running best, and
 * evaluates the others in numpy's operation order; a strictly greater
 * value wins, so the winner is numpy's first argmax.  No step assumes log
 * is monotone.  Build with -ffp-contract=off so that no product and sum
 * fuse into one rounding.
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
