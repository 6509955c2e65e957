/* The walk of amr.market._walk, compiled: steps [0, T) of R = M * S runs
 * over the (C, K, M, S) agent state, with NumPy's arithmetic in NumPy's
 * order, so every price and demand keeps its bits.  Build it with
 * -ffp-contract=off: a fused multiply-add rounds once where NumPy rounds
 * twice.
 *
 * Each step's decision uniforms, moved up one float, are read from above,
 * the (T, C, K, S) table, or, when above is NULL, hashed here, batch_rows
 * rows of the state at a time, just before those rows vote, so the batch
 * is still in cache when it is read.  batch_rows is the length of the first
 * (longest) row block that market._walk cuts for both walks, so a batch
 * holds no more uniforms than a block of the NumPy walk.  Uniform (c, k, s)
 * of step t is then splitmix64 of keys[t, s] ^ (k * C + c): the (T, S)
 * step keys with the mixer's first round applied (rng.grid_keys) and the
 * id of the agent at position (c, k), finished as rng.u01_grid and
 * market._next_up finish them, so every bit is the NumPy walk's.
 *
 * hash_batch, and only it, is built twice where HASH_CLONES applies: a
 * portable clone and an x86-64-v4 one, whose AVX-512 has the 64-bit
 * multiply (vpmullq) and int64-to-double conversion (vcvtqq2pd) that the
 * hash needs in vector lanes.  The loader picks the clone once, through an
 * ifunc, by the CPU it runs on.  Both give the same bits: the hash is
 * integer arithmetic and an exact conversion of a value below 2^53.  The
 * rest stays portable: the whole file built for x86-64-v4 made the tabled
 * walk slower.
 *
 * prices is (T + 1, R), demands (T, R) and returns (R,) holds the return
 * that step 0 reads.  scratch holds 2 * K * R doubles, and batch_rows *
 * K * S more when above is NULL.  Every array is C-contiguous.
 */
#include <stdint.h>
#include <string.h>

#define SIGN_BIT UINT64_C(0x8000000000000000)

/* target_clones with arch=x86-64-v4 needs GCC 11, and its ifunc the GNU C
 * library.  Elsewhere the macro is empty: one portable hash_batch, and the
 * file still builds. */
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && __GNUC__ >= 11 && defined(__GLIBC__)
#define HASH_CLONES __attribute__((target_clones("arch=x86-64-v4", "default")))
#else
#define HASH_CLONES
#endif

/* nextafter(u, +inf) of the uniform of a grid word: the mixer's passes after
 * its first round, the top 53 bits as a double in [0, 1), then bits + 1. */
static inline double above_uniform(uint64_t z)
{
    z *= UINT64_C(0xBF58476D1CE4E5B9);
    z ^= z >> 27;
    z *= UINT64_C(0x94D049BB133111EB);
    z ^= z >> 31;
    double u = (double)(int64_t)(z >> 11) * 0x1p-53;
    uint64_t bits;
    memcpy(&bits, &u, sizeof bits);
    bits += 1;
    memcpy(&u, &bits, sizeof u);
    return u;
}

/* The uniforms of rows [c0, c1) of one step, moved up one float, from its
 * S keys: batch[((c - c0) * K + k) * S + s] is that of agent k * C + c
 * under keys[s]. */
static HASH_CLONES void hash_batch(int64_t c0, int64_t c1, int64_t size, int64_t chunks, int64_t seeds,
                                   const uint64_t *restrict keys, double *restrict batch)
{
    if (seeds == 1)  /* the chunks run innermost, stores contiguous, so the loop vectorizes */
        for (int64_t c = c0; c < c1; c++, batch += chunks)
            for (int64_t k = 0; k < chunks; k++)
                batch[k] = above_uniform(keys[0] ^ (uint64_t)(k * size + c));
    else  /* the seeds run innermost */
        for (int64_t c = c0; c < c1; c++)
            for (int64_t k = 0; k < chunks; k++, batch += seeds) {
                const uint64_t id = (uint64_t)(k * size + c);
                for (int64_t s = 0; s < seeds; s++)
                    batch[s] = above_uniform(keys[s] ^ id);
            }
}

/* n contiguous votes of one row, each added to its lane sum. */
static inline void vote(int64_t n, const double *restrict reactivity, const double *restrict optimism,
                        const uint64_t *restrict abs_weight_bits, const double *restrict returns,
                        const double *restrict above, double *restrict sums)
{
    for (int64_t j = 0; j < n; j++) {
        /* The agent buys when u < x; x - nextafter(u, +inf) carries that as
         * its sign bit, and is never -0.0 (see _walk). */
        double x = reactivity[j] * returns[j];
        x += optimism[j];
        x -= above[j];
        uint64_t bits;
        memcpy(&bits, &x, sizeof bits);
        bits = (bits & SIGN_BIT) | abs_weight_bits[j];
        double v;
        memcpy(&v, &bits, sizeof v);
        sums[j] += v;
    }
}

void amr_walk(int64_t steps, int64_t size, int64_t chunks, int64_t masks, int64_t seeds,
              const double *optimism, const double *reactivity, const uint64_t *abs_weight_bits,
              const double *above, const uint64_t *keys, int64_t batch_rows, double price_impact,
              double *prices, double *demands, double *returns, double *scratch)
{
    const int64_t lanes = masks * seeds, row = chunks * lanes, row_uniforms = chunks * seeds;
    /* Per (k, m, s) of one row: the lane sums and the lane's last return. */
    double *sums = scratch, *row_returns = sums + row, *batch = row_returns + row;
    for (int64_t t = 0; t < steps; t++) {
        double *price = prices + t * lanes;
        if (t > 0)
            for (int64_t r = 0; r < lanes; r++)
                returns[r] = (price[r] - price[r - lanes]) / price[r - lanes];
        for (int64_t j = 0; j < row; j++) {
            row_returns[j] = returns[j % lanes];
            /* Each lane is summed from -0.0, in agent order. */
            sums[j] = -0.0;
        }
        for (int64_t c0 = 0; c0 < size; c0 += batch_rows) {
            const int64_t c1 = c0 + batch_rows < size ? c0 + batch_rows : size;
            const double *u = batch;
            if (above)
                u = above + (t * size + c0) * row_uniforms;
            else
                hash_batch(c0, c1, size, chunks, seeds, keys + t * seeds, batch);
            for (int64_t c = c0; c < c1; c++, u += row_uniforms) {
                const int64_t at = c * row;
                if (masks == 1)  /* the uniforms are laid out as the row's lanes */
                    vote(row, reactivity + at, optimism + at, abs_weight_bits + at, row_returns, u, sums);
                else  /* every mask reads the seeds' uniforms of its chunk */
                    for (int64_t k = 0; k < chunks; k++)
                        for (int64_t m = 0; m < masks; m++) {
                            const int64_t j = k * lanes + m * seeds;
                            vote(seeds, reactivity + at + j, optimism + at + j, abs_weight_bits + at + j,
                                 row_returns + j, u + k * seeds, sums + j);
                        }
            }
        }
        /* Chunk totals are added to 0.0 in chunk order; a lone chunk's total
         * is taken as is, so a run of -0.0 votes keeps its sign. */
        for (int64_t r = 0; r < lanes; r++) {
            double demand = sums[r];
            if (chunks > 1) {
                demand += 0.0;
                for (int64_t k = 1; k < chunks; k++)
                    demand += sums[k * lanes + r];
            }
            demands[t * lanes + r] = demand;
            price[lanes + r] = (demand * price_impact + 1.0) * price[r];
        }
    }
}
