/* The one-block walk of amr.market._walk, compiled: steps [t0, t1) of
 * R = M * S runs over the (C, K, M, S) agent state, with NumPy's
 * arithmetic in NumPy's order, so every price and demand keeps its bits.
 * Build it with -ffp-contract=off: a fused multiply-add rounds once
 * where NumPy rounds twice.
 *
 * above holds the decision uniforms of steps t0 .. t1 - 1, each moved up
 * one float, as (t1 - t0, C, K, S); prices is (T + 1, R), demands
 * (T, R), returns (R,) holds the return that step t0 reads when t0 is 0,
 * and totals is (K, R) scratch.  Every array is C-contiguous.
 */
#include <stdint.h>
#include <string.h>

void amr_walk(int64_t t0, int64_t t1, int64_t size, int64_t chunks, int64_t masks, int64_t seeds,
              const double *optimism, const double *reactivity, const uint64_t *abs_weight_bits,
              const double *above, double price_impact, double *prices, double *demands,
              double *returns, double *totals)
{
    const int64_t lanes = masks * seeds;
    for (int64_t t = t0; t < t1; t++, above += size * chunks * seeds) {
        double *price = prices + t * lanes;
        if (t > 0)
            for (int64_t r = 0; r < lanes; r++)
                returns[r] = (price[r] - price[r - lanes]) / price[r - lanes];
        /* Each lane is summed from -0.0, in agent order. */
        for (int64_t j = 0; j < chunks * lanes; j++)
            totals[j] = -0.0;
        for (int64_t c = 0; c < size; c++)
            for (int64_t k = 0; k < chunks; k++) {
                const int64_t at = (c * chunks + k) * lanes;  /* position (c, k) of lane 0 */
                const double *u = above + (c * chunks + k) * seeds;
                double *sum = totals + k * lanes;
                for (int64_t m = 0; m < masks; m++)
                    for (int64_t s = 0; s < seeds; s++) {
                        const int64_t r = m * seeds + s, i = at + r;
                        /* The agent buys when u < x; x - nextafter(u, +inf) carries
                         * that as its sign bit, and is never -0.0 (see _walk). */
                        double x = reactivity[i] * returns[r];
                        x += optimism[i];
                        x -= u[s];
                        uint64_t bits;
                        memcpy(&bits, &x, sizeof bits);
                        bits = (bits & UINT64_C(0x8000000000000000)) | abs_weight_bits[i];
                        double vote;
                        memcpy(&vote, &bits, sizeof vote);
                        sum[r] += vote;
                    }
            }
        /* Chunk totals are added to 0.0 in chunk order; a lone chunk's total
         * is taken as is, so a run of -0.0 votes keeps its sign. */
        for (int64_t r = 0; r < lanes; r++) {
            double demand = totals[r];
            if (chunks > 1) {
                demand += 0.0;
                for (int64_t k = 1; k < chunks; k++)
                    demand += totals[k * lanes + r];
            }
            demands[t * lanes + r] = demand;
            price[lanes + r] = (demand * price_impact + 1.0) * price[r];
        }
    }
}
