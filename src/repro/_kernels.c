/*
 * The fast engine's compiled kernels, one library for the per-round passes
 * numpy and dict code would run (loaded by repro._native):
 *
 *   repro_refresh_unit     the rolling correlation's exact refresh up to
 *                          its Gram product: centred, normalised rows;
 *   repro_refresh_finish   the refresh after the Gram product: the
 *                          Pearson matrix and the cross-product matrix;
 *   repro_corr_from_sums   the rolling correlation's normalisation of its
 *                          running sums into a Pearson matrix;
 *   repro_tsg_certify      the delta TSG builder's separation certificate;
 *   repro_tsg_csr          the TSG's CSR arrays from the top-k pick table;
 *   repro_louvain_labels   Louvain community labels on the CSR graph.
 *
 * Each one reproduces the numpy (or dict) code it replaces bit for bit, so
 * every floating-point operation runs in that code's order.  Build with
 * -ffp-contract=off and without -ffast-math: a fused multiply-add or a
 * reassociated sum would change the bits.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum {
    KERNEL_OK = 0,
    KERNEL_NO_MEMORY = 5
};

/*
 * The row scans are element-wise, integer reductions or the eight
 * independent lanes of numpy's pairwise sum, so a wider vector unit returns
 * the same bits.  On x86-64 ELF targets whose compiler has target_clones
 * they are compiled twice, for AVX2 and for the baseline ISA, and the
 * dynamic loader picks the clone the host runs; the library is never built
 * for one host's -march, so a cached copy can be shared.
 * Define REPRO_NO_TARGET_CLONES to build the baseline code alone.
 */
#if defined(__x86_64__) && defined(__ELF__) && defined(__has_attribute) \
    && !defined(REPRO_NO_TARGET_CLONES)
#if __has_attribute(target_clones)
#define ROW_SCAN __attribute__((target_clones("avx2", "default")))
#endif
#endif
#ifndef ROW_SCAN
#define ROW_SCAN
#endif

/* ------------------------------------------------------------------------
 * numpy's pairwise summation
 *
 * The order in which numpy reduces a float64 row whose elements are
 * adjacent in memory: blocks of up to 128 elements are summed in eight
 * interleaved lanes, longer runs split in two at a multiple of eight.  The
 * eight lanes are independent sums, so a vector unit returns the same bits.
 * numpy's add.reduce starts from its identity, so a caller matching
 * ndarray.sum adds the result to 0.0 (which turns -0.0 into +0.0).
 * --------------------------------------------------------------------- */

#define DEFINE_PAIRWISE_SUM(name, TERM)                                     \
    static double name(const double *a, int64_t n)                          \
    {                                                                       \
        if (n < 8) {                                                        \
            double res = 0.;                                                \
            for (int64_t i = 0; i < n; i++) {                               \
                res += TERM(a[i]);                                          \
            }                                                               \
            return res;                                                     \
        }                                                                   \
        if (n <= 128) {                                                     \
            double r[8];                                                    \
            int64_t i;                                                      \
            for (int j = 0; j < 8; j++) {                                   \
                r[j] = TERM(a[j]);                                          \
            }                                                               \
            for (i = 8; i < n - (n % 8); i += 8) {                          \
                for (int j = 0; j < 8; j++) {                               \
                    r[j] += TERM(a[i + j]);                                 \
                }                                                           \
            }                                                               \
            double res = ((r[0] + r[1]) + (r[2] + r[3]))                    \
                         + ((r[4] + r[5]) + (r[6] + r[7]));                 \
            for (; i < n; i++) {                                            \
                res += TERM(a[i]);                                          \
            }                                                               \
            return res;                                                     \
        }                                                                   \
        int64_t n2 = n / 2;                                                 \
        n2 -= n2 % 8;                                                       \
        return name(a, n2) + name(a + n2, n - n2);                          \
    }

#define TERM_VALUE(x) (x)
#define TERM_SQUARE(x) ((x) * (x))

/* numpy's pairwise sum of a[0..n). */
DEFINE_PAIRWISE_SUM(pairwise_sum, TERM_VALUE)

/* The same sum of a[i] * a[i], i.e. of the array numpy's a * a makes:
 * each square is rounded before it is added (no fused multiply-add). */
DEFINE_PAIRWISE_SUM(pairwise_sum_squares, TERM_SQUARE)

/* ------------------------------------------------------------------------
 * Rolling correlation
 * --------------------------------------------------------------------- */

/*
 * Constant sensors leave a Pearson matrix with 0 in their rows and columns,
 * the diagonal included.  The kernels below apply that rule per row, after
 * the row's clip and diagonal pin: a constant row is written as zeros, and
 * each other row gets 0 in the constant columns, listed ascending in
 * constant[0..n_constant).  Without constant sensors the row loops carry no
 * per-element test, and with them no pass writes a column with stride n.
 */

/*
 * The exact refresh of repro.timeseries.rolling.refresh_from_window up to
 * its Gram product, row by row, in that function's order:
 *
 *   baseline = (0 + pairwise_sum(x)) / w
 *   c        = x - baseline                       the centred row
 *   norm     = sqrt(0 + pairwise_sum(c * c))
 *   constant = norm <= 1e-12,  safe = constant ? 1 : norm
 *   sums     = 0 + pairwise_sum(c)
 *   unit     = c / safe
 *
 * window is n rows of w adjacent doubles, row i starting at
 * window + i * row_stride; unit is n x w row-major, so numpy's unit @ unit.T
 * makes the BLAS call it makes on the numpy chain's unit.  Writes the
 * constant rows, ascending, to constant (n slots) and returns how many
 * there are, for repro_refresh_finish.
 */
ROW_SCAN
int64_t repro_refresh_unit(int64_t n, int64_t w, const double *window,
                           int64_t row_stride, double *baseline, double *sums,
                           double *safe, int64_t *constant, double *unit)
{
    double count = (double)w;
    int64_t n_constant = 0;
    for (int64_t i = 0; i < n; i++) {
        const double *x = window + i * row_stride;
        double *c = unit + i * w;
        double mean = (0.0 + pairwise_sum(x, w)) / count;
        for (int64_t t = 0; t < w; t++) {
            c[t] = x[t] - mean;
        }
        double norm = sqrt(0.0 + pairwise_sum_squares(c, w));
        double scale = norm;
        if (norm <= 1e-12) {
            scale = 1.0;
            constant[n_constant++] = i;
        }
        baseline[i] = mean;
        sums[i] = 0.0 + pairwise_sum(c, w);
        safe[i] = scale;
        for (int64_t t = 0; t < w; t++) {
            c[t] = c[t] / scale;
        }
    }
    return n_constant;
}

/*
 * The exact refresh after its Gram product, in one pass over corr (the
 * n x n row-major unit @ unit.T, rewritten in place):
 *
 *   v = clip corr[i, j] to [-1, 1]     NaN and -0.0 pass through unchanged
 *   v = 1 on the diagonal,  0 when sensor i or j is constant
 *   corr[i, j] = v,  cross[i, j] = v * (safe[i] * safe[j])
 *
 * with constant[0..n_constant) the ascending constant rows that
 * repro_refresh_unit returned.
 */
ROW_SCAN
void repro_refresh_finish(int64_t n, double *corr, const double *safe,
                          const int64_t *constant, int64_t n_constant,
                          double *cross)
{
    int64_t next = 0; /* constant[next] is the next constant row */
    for (int64_t i = 0; i < n; i++) {
        double *row = corr + i * n;
        double *cross_row = cross + i * n;
        double safe_i = safe[i];
        if (next < n_constant && constant[next] == i) {
            next++;
            for (int64_t j = 0; j < n; j++) {
                row[j] = 0.0;
                cross_row[j] = 0.0 * (safe_i * safe[j]);
            }
            continue;
        }
        for (int64_t j = 0; j < n; j++) {
            double v = row[j];
            if (v < -1.0) {
                v = -1.0;
            } else if (v > 1.0) {
                v = 1.0;
            }
            row[j] = v;
            cross_row[j] = v * (safe_i * safe[j]);
        }
        row[i] = 1.0;
        cross_row[i] = 1.0 * (safe_i * safe_i);
        for (int64_t m = 0; m < n_constant; m++) {
            int64_t j = constant[m];
            row[j] = 0.0;
            cross_row[j] = 0.0 * (safe_i * safe[j]);
        }
    }
}

/*
 * Pearson matrix from a window's running sums: out = normalised
 * outer(sums, sums / -window) + cross.  The per-element operations are
 * repro.timeseries.rolling.corr_from_sums's, in its order:
 *
 *   v = sums[i] * (sums[j] / -window) + cross[i, j]
 *   v = (v * inv[i]) * inv[j]           inv = 1 / norm, 1 for constants
 *   clip v to [-1, 1], then v = 1 on the diagonal and v = 0 when sensor
 *   i or j is constant (per row, as above),
 *
 * where norm[i] = sqrt(max(v_ii, 0)) from the unscaled diagonal and a
 * sensor is constant when its norm is <= 1e-12.  Returns KERNEL_OK or
 * KERNEL_NO_MEMORY.
 */
ROW_SCAN
int repro_corr_from_sums(int64_t n, double window, const double *sums,
                         const double *cross, double *out)
{
    size_t size = (size_t)(n > 0 ? n : 1);
    double *scaled = malloc(size * sizeof(double));
    double *inv = malloc(size * sizeof(double));
    int64_t *constant = malloc(size * sizeof(int64_t));
    if (!scaled || !inv || !constant) {
        free(scaled);
        free(inv);
        free(constant);
        return KERNEL_NO_MEMORY;
    }
    double negw = -window;
    for (int64_t j = 0; j < n; j++) {
        scaled[j] = sums[j] / negw;
    }
    int64_t n_constant = 0;
    for (int64_t i = 0; i < n; i++) {
        double var = sums[i] * scaled[i] + cross[i * n + i];
        /* np.clip(var, 0, None): NaN stays NaN, -0.0 becomes +0.0. */
        if (!(isnan(var) || var > 0.0)) {
            var = 0.0;
        }
        double norm = sqrt(var);
        if (norm <= 1e-12) {
            norm = 1.0;
            constant[n_constant++] = i;
        }
        inv[i] = 1.0 / norm;
    }
    int64_t next = 0; /* constant[next] is the next constant row */
    for (int64_t i = 0; i < n; i++) {
        double *row = out + i * n;
        if (next < n_constant && constant[next] == i) {
            next++;
            for (int64_t j = 0; j < n; j++) {
                row[j] = 0.0;
            }
            continue;
        }
        const double *cross_row = cross + i * n;
        double sum_i = sums[i];
        double inv_i = inv[i];
        for (int64_t j = 0; j < n; j++) {
            double v = sum_i * scaled[j];
            v = v + cross_row[j];
            v = v * inv_i;
            v = v * inv[j];
            /* np.clip(v, -1, 1): NaN and -0.0 pass through unchanged. */
            if (v < -1.0) {
                v = -1.0;
            } else if (v > 1.0) {
                v = 1.0;
            }
            row[j] = v;
        }
        row[i] = 1.0;
        for (int64_t m = 0; m < n_constant; m++) {
            row[constant[m]] = 0.0;
        }
    }
    free(scaled);
    free(inv);
    free(constant);
    return KERNEL_OK;
}

/* ------------------------------------------------------------------------
 * TSG construction
 *
 * Strength is |corr| off the diagonal; as in
 * repro.timeseries.correlation.top_k_neighbors, a row never picks its own
 * diagonal.  picks is the n x k row-major pick table: picks[i * k + m] is
 * the m-th of row i's top k columns, in no particular order.  The caller
 * guarantees every pick lies in [0, n); the certificate marks a row with a
 * diagonal or repeated pick (a corrupt table) stale.
 * --------------------------------------------------------------------- */

/*
 * 1 for a double 1.0, 0 for 0.0, read from the bits.  A count of compare
 * results taken this way stays in 64-bit lanes, the width of the compared
 * doubles, so gcc vectorises the certificate's row scan with the baseline
 * x86-64 ISA (SSE2) too; counting the compare's int directly, it gives up
 * there ("no vectype") and vectorises only the AVX2 clone.
 */
static inline int64_t lane_flag(double flag)
{
    uint64_t bits;
    memcpy(&bits, &flag, sizeof bits);
    return (int64_t)(bits >> 52 & 1);
}

/*
 * Separation certificate of every row of picks against corr: a row is
 * certified when it holds no NaN strength and its weakest pick is strictly
 * stronger than its strongest non-pick.  With weakest = the weakest pick's
 * strength, that is: every j != i is ordered (not NaN) and exactly k of
 * them have strength >= weakest (the k picks themselves).  One branch-free
 * pass over the row counts both.  Writes the stale rows, in ascending
 * order, to stale_out (n slots) and returns how many there are, or
 * -KERNEL_NO_MEMORY.
 */
ROW_SCAN
int64_t repro_tsg_certify(int64_t n, int64_t k, const double *corr,
                          const int64_t *picks, int64_t *stale_out)
{
    /* owner[j] == i while row i is checked and has picked j already. */
    int64_t *owner = malloc((size_t)(n > 0 ? n : 1) * sizeof(int64_t));
    if (owner == NULL) {
        return -KERNEL_NO_MEMORY;
    }
    for (int64_t j = 0; j < n; j++) {
        owner[j] = -1;
    }
    int64_t n_stale = 0;
    for (int64_t i = 0; i < n; i++) {
        const double *row = corr + i * n;
        const int64_t *pick = picks + i * k;
        double weakest = INFINITY;
        int corrupt = 0;
        for (int64_t m = 0; m < k; m++) {
            int64_t j = pick[m];
            corrupt |= j == i || owner[j] == i;
            owner[j] = i;
            double s = fabs(row[j]);
            weakest = s < weakest ? s : weakest;
        }
        int64_t at_least = 0;
        int64_t ordered = 0;
        for (int64_t j = 0; j < n; j++) {
            double s = fabs(row[j]);
            at_least += lane_flag(s >= weakest ? 1.0 : 0.0);
            ordered += lane_flag(s == s ? 1.0 : 0.0);
        }
        /* The diagonal takes part in neither count. */
        double diagonal = fabs(row[i]);
        at_least -= diagonal >= weakest;
        ordered -= diagonal == diagonal;
        if (corrupt || ordered != n - 1 || at_least != k) {
            stale_out[n_stale++] = i;
        }
    }
    free(owner);
    return n_stale;
}

/*
 * CSR arrays of the TSG with absolute weights, i.e. the arrays of
 * repro.graph.csr.tsg_csr(corr, k, tau).absolute().  Vertices i != j are
 * joined when either picked the other; the edge takes the correlation of
 * the lower-index vertex's pick when it made one (corr[lo, hi]), else
 * corr[hi, lo], and is kept when |weight| >= tau.  Rows are written in
 * ascending column order, both directions of every edge stored.
 *
 * Two n x ceil(n / 64) bitsets hold "i picked j" and "i or j picked the
 * other"; walking a row of the second with count-trailing-zeros yields its
 * columns in ascending order, so the pass costs O(n^2 / 64 + n k), not n^2
 * mask reads.  Every pick sets at most two bits, so indices and weights
 * need 2 n k slots.  Returns the number of stored entries, or
 * -KERNEL_NO_MEMORY.
 */
int64_t repro_tsg_csr(int64_t n, int64_t k, const double *corr,
                      const int64_t *picks, double tau, int64_t *indptr,
                      int64_t *indices, double *weights)
{
    int64_t words = (n + 63) / 64;
    size_t n_words = (size_t)(n > 0 ? 2 * n * words : 1);
    uint64_t *picked = calloc(n_words, sizeof(uint64_t));
    if (picked == NULL) {
        return -KERNEL_NO_MEMORY;
    }
    uint64_t *either = picked + n * words;
    for (int64_t i = 0; i < n; i++) {
        for (int64_t m = 0; m < k; m++) {
            int64_t j = picks[i * k + m];
            uint64_t bit_j = (uint64_t)1 << (j & 63);
            picked[i * words + (j >> 6)] |= bit_j;
            either[i * words + (j >> 6)] |= bit_j;
            either[j * words + (i >> 6)] |= (uint64_t)1 << (i & 63);
        }
    }
    int64_t nnz = 0;
    indptr[0] = 0;
    for (int64_t i = 0; i < n; i++) {
        const uint64_t *row = either + i * words;
        for (int64_t w = 0; w < words; w++) {
            for (uint64_t bits = row[w]; bits != 0; bits &= bits - 1) {
                int64_t j = w * 64 + __builtin_ctzll(bits);
                int64_t lo = i < j ? i : j;
                int64_t hi = i < j ? j : i;
                int forward = (picked[lo * words + (hi >> 6)] >> (hi & 63)) & 1;
                double weight = fabs(forward ? corr[lo * n + hi] : corr[hi * n + lo]);
                if (weight >= tau) {
                    indices[nnz] = j;
                    weights[nnz] = weight;
                    nnz++;
                }
            }
        }
        indptr[i + 1] = nnz;
    }
    free(picked);
    return nnz;
}

/* ------------------------------------------------------------------------
 * Louvain
 *
 * The compiled body of repro.graph.csr.louvain_labels_csr.  It mirrors the
 * dict reference (repro.graph.louvain) decision for decision: vertices are
 * visited in index order, candidate communities in ascending label order,
 * and a move needs a gain strictly above best + min_gain.  Every
 * floating-point sum runs in a fixed, documented order:
 *
 *   - a vertex's link weight to a community accumulates over its CSR row in
 *     column order (columns are sorted ascending);
 *   - a level's degrees are row sums in column order, plus twice the
 *     self-loop weight, and two_m is numpy's pairwise sum of the degrees;
 *   - aggregation sums merged edge weights in edge-enumeration order (row
 *     ascending, then column ascending, upper triangle only), and a
 *     super-vertex's self-loop is its members' self-loops summed in vertex
 *     order plus its intra-community edges summed in enumeration order.
 *
 * After a level's first sweep, a sweep evaluates only vertices on a
 * community boundary when it starts, plus the neighbours of every vertex
 * that moves during it.  The skip is exact: a vertex whose neighbours all
 * share its label has one candidate, its own label, so it stays, and a
 * stay writes nothing.
 * --------------------------------------------------------------------- */

enum {
    LOUVAIN_OK = 0,
    LOUVAIN_BAD_START = 1,      /* indptr[0] != 0 */
    LOUVAIN_BAD_ORDER = 2,      /* indptr decreases somewhere */
    LOUVAIN_BAD_END = 3,        /* indptr[n] != len(indices) */
    LOUVAIN_BAD_INDEX = 4,      /* an index outside [0, n) */
    LOUVAIN_NO_MEMORY = KERNEL_NO_MEMORY
};

typedef struct {
    int64_t n;
    const int64_t *indptr;
    const int64_t *indices;
    const double *weights;
    const double *self_weight; /* NULL on the input level: all zero */
    double *degree;
    double two_m;
    /* Arrays this level allocated (aggregated levels only). */
    int64_t *own_indptr;
    int64_t *own_indices;
    double *own_weights;
    double *own_self_weight;
} level_t;

static void level_free(level_t *level)
{
    free(level->own_indptr);
    free(level->own_indices);
    free(level->own_weights);
    free(level->own_self_weight);
    free(level->degree);
    memset(level, 0, sizeof(*level));
}

/* Degrees and two_m of a level whose CSR arrays are set. */
static int level_init_degrees(level_t *level)
{
    int64_t n = level->n;
    level->degree = malloc((size_t)(n > 0 ? n : 1) * sizeof(double));
    if (level->degree == NULL) {
        return LOUVAIN_NO_MEMORY;
    }
    for (int64_t v = 0; v < n; v++) {
        double row_sum = 0.0;
        for (int64_t j = level->indptr[v]; j < level->indptr[v + 1]; j++) {
            row_sum += level->weights[j];
        }
        double self = level->self_weight == NULL ? 0.0 : level->self_weight[v];
        level->degree[v] = row_sum + 2.0 * self;
    }
    /* float(degree.sum()): numpy starts the reduction from 0.0. */
    level->two_m = 0.0 + pairwise_sum(level->degree, n);
    return LOUVAIN_OK;
}

static void sort_labels(int64_t *a, int64_t count)
{
    /* Insertion sort: candidate lists are a handful of labels. */
    for (int64_t i = 1; i < count; i++) {
        int64_t key = a[i];
        int64_t j = i - 1;
        while (j >= 0 && a[j] > key) {
            a[j + 1] = a[j];
            j--;
        }
        a[j + 1] = key;
    }
}

static int compare_labels(const void *x, const void *y)
{
    int64_t a = *(const int64_t *)x;
    int64_t b = *(const int64_t *)y;
    return (a > b) - (a < b);
}

static void sort_ascending(int64_t *a, int64_t count)
{
    if (count <= 32) {
        sort_labels(a, count);
    } else {
        qsort(a, (size_t)count, sizeof(int64_t), compare_labels);
    }
}

/* Scratch arrays sized by the input vertex count, reused by every level. */
typedef struct {
    double *community_degree;
    double *link;
    unsigned char *seen;
    unsigned char *active;
    int64_t *touched;
    int64_t *map;
} scratch_t;

/*
 * One local-moving pass.  Writes the final label of every vertex to
 * labels and returns 1 when any vertex moved.
 */
static int one_level(const level_t *level, double resolution, double min_gain,
                     int64_t *labels, scratch_t *s)
{
    int64_t n = level->n;
    const int64_t *indptr = level->indptr;
    const int64_t *indices = level->indices;
    const double *weights = level->weights;
    const double *degree = level->degree;
    double two_m = level->two_m;
    double *community_degree = s->community_degree;
    double *link = s->link;
    unsigned char *seen = s->seen;
    unsigned char *active = s->active;
    int64_t *touched = s->touched;

    for (int64_t v = 0; v < n; v++) {
        labels[v] = v;
        community_degree[v] = degree[v];
        active[v] = 1; /* the first sweep evaluates every vertex ... */
    }
    if (two_m <= 0) {
        return 0;
    }
    int marking = 0; /* ... so it needs no marks from movers */
    int improved = 0;
    for (;;) {
        int64_t moves = 0;
        for (int64_t v = 0; v < n; v++) {
            int64_t begin = indptr[v];
            int64_t end = indptr[v + 1];
            if (!active[v] || begin == end) {
                continue;
            }
            int64_t old = labels[v];
            int64_t n_touched = 0;
            for (int64_t j = begin; j < end; j++) {
                int64_t label = labels[indices[j]];
                if (seen[label]) {
                    link[label] += weights[j];
                } else {
                    seen[label] = 1;
                    link[label] = weights[j];
                    touched[n_touched++] = label;
                }
            }
            double deg_v = degree[v];
            double removed = community_degree[old] - deg_v;
            double base = (seen[old] ? link[old] : 0.0)
                          - resolution * deg_v * removed / two_m;
            int64_t best_label = old;
            double best_gain = 0.0;
            sort_ascending(touched, n_touched);
            for (int64_t i = 0; i < n_touched; i++) {
                int64_t label = touched[i];
                seen[label] = 0;
                if (label == old) {
                    continue;
                }
                double gain = (link[label]
                               - resolution * deg_v * community_degree[label] / two_m)
                              - base;
                if (gain > best_gain + min_gain) {
                    best_gain = gain;
                    best_label = label;
                }
            }
            if (best_label != old) {
                community_degree[old] = removed;
                community_degree[best_label] += deg_v;
                labels[v] = best_label;
                if (marking) {
                    for (int64_t j = begin; j < end; j++) {
                        active[indices[j]] = 1;
                    }
                }
                moves++;
            }
        }
        if (moves == 0) {
            break; /* a sweep with no moves: the level converged */
        }
        improved = 1;
        for (int64_t v = 0; v < n; v++) {
            unsigned char boundary = 0;
            for (int64_t j = indptr[v]; j < indptr[v + 1]; j++) {
                if (labels[indices[j]] != labels[v]) {
                    boundary = 1;
                    break;
                }
            }
            active[v] = boundary;
        }
        marking = 1;
    }
    return improved;
}

/* Relabel n labels in [0, n) to 0..k-1 in order of first appearance;
 * returns k. */
static int64_t compact(const int64_t *labels, int64_t n, int64_t *out, int64_t *map)
{
    for (int64_t i = 0; i < n; i++) {
        map[i] = -1;
    }
    int64_t k = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t label = labels[i];
        if (map[label] < 0) {
            map[label] = k++;
        }
        out[i] = map[label];
    }
    return k;
}

/*
 * Condense the communities of level (labels compacted to 0..n_new-1) into
 * super-vertices.  Intra-community weight becomes the super-vertex's
 * self-loop, so later levels keep optimising the same global modularity.
 */
static int aggregate(const level_t *level, const int64_t *labels, int64_t n_new,
                     level_t *out)
{
    int64_t n = level->n;
    const int64_t *indptr = level->indptr;
    const int64_t *indices = level->indices;
    const double *weights = level->weights;
    int status = LOUVAIN_NO_MEMORY;
    size_t n_slots = (size_t)(n_new > 0 ? n_new : 1);
    memset(out, 0, sizeof(*out));

    /* At most one inter-community entry per stored edge entry. */
    size_t n_edge_slots = (size_t)(indptr[n] > 0 ? indptr[n] : 1);

    double *self_weight = calloc(n_slots, sizeof(double));
    double *intra = calloc(n_slots, sizeof(double));
    int64_t *bucket_start = calloc(n_slots + 1, sizeof(int64_t));
    int64_t *fill = malloc(n_slots * sizeof(int64_t));
    int64_t *edge_hi = malloc(n_edge_slots * sizeof(int64_t));
    double *edge_w = malloc(n_edge_slots * sizeof(double));
    int64_t *pair_hi = malloc(n_edge_slots * sizeof(int64_t));
    double *pair_w = malloc(n_edge_slots * sizeof(double));
    int64_t *pair_start = malloc((n_slots + 1) * sizeof(int64_t));
    int64_t *slot = malloc(n_slots * sizeof(int64_t));
    double *merged = malloc(n_slots * sizeof(double));
    int64_t *new_indptr = calloc(n_slots + 1, sizeof(int64_t));
    int64_t *new_indices = NULL;
    double *new_weights = NULL;
    if (!self_weight || !intra || !bucket_start || !fill || !edge_hi || !edge_w
        || !pair_hi || !pair_w || !pair_start || !slot || !merged || !new_indptr) {
        goto done;
    }

    /* Self-loops: members' self-loops in vertex order, then (separately)
     * intra-community edges in enumeration order; the two sums are added
     * at the end. */
    if (level->self_weight != NULL) {
        for (int64_t v = 0; v < n; v++) {
            self_weight[labels[v]] += level->self_weight[v];
        }
    }
    int has_intra = 0;
    for (int64_t v = 0; v < n; v++) {
        int64_t cv = labels[v];
        for (int64_t j = indptr[v]; j < indptr[v + 1]; j++) {
            int64_t u = indices[j];
            if (u <= v) {
                continue; /* each undirected edge once */
            }
            int64_t cu = labels[u];
            if (cu == cv) {
                intra[cv] += weights[j];
                has_intra = 1;
            } else {
                bucket_start[(cv < cu ? cv : cu) + 1]++;
            }
        }
    }
    if (has_intra) {
        for (int64_t c = 0; c < n_new; c++) {
            self_weight[c] += intra[c];
        }
    }

    /* Stable bucket sort of the inter-community edges by their lower
     * endpoint, so each (lo, hi) pair still sums in enumeration order. */
    for (int64_t c = 0; c < n_new; c++) {
        bucket_start[c + 1] += bucket_start[c];
        fill[c] = bucket_start[c];
    }
    for (int64_t v = 0; v < n; v++) {
        int64_t cv = labels[v];
        for (int64_t j = indptr[v]; j < indptr[v + 1]; j++) {
            int64_t u = indices[j];
            if (u <= v) {
                continue;
            }
            int64_t cu = labels[u];
            if (cu != cv) {
                int64_t lo = cv < cu ? cv : cu;
                int64_t at = fill[lo]++;
                edge_hi[at] = cv < cu ? cu : cv;
                edge_w[at] = weights[j];
            }
        }
    }

    /* Merge duplicates per lower endpoint; distinct upper endpoints come
     * out ascending.  Count both directions of every merged pair. */
    for (int64_t c = 0; c < n_new; c++) {
        slot[c] = -1;
    }
    int64_t n_pairs = 0;
    for (int64_t lo = 0; lo < n_new; lo++) {
        pair_start[lo] = n_pairs;
        int64_t first = n_pairs;
        for (int64_t at = bucket_start[lo]; at < bucket_start[lo + 1]; at++) {
            int64_t hi = edge_hi[at];
            if (slot[hi] == lo) {
                merged[hi] += edge_w[at];
            } else {
                slot[hi] = lo;
                merged[hi] = edge_w[at];
                pair_hi[n_pairs++] = hi;
            }
        }
        sort_ascending(pair_hi + first, n_pairs - first);
        for (int64_t p = first; p < n_pairs; p++) {
            pair_w[p] = merged[pair_hi[p]];
            new_indptr[lo + 1]++;
            new_indptr[pair_hi[p] + 1]++;
        }
    }
    pair_start[n_new] = n_pairs;

    /* Fill rows in ascending lower-endpoint order: row r first receives its
     * lower neighbours (ascending, from earlier buckets), then its own
     * bucket's upper neighbours (ascending), so every row comes out sorted. */
    for (int64_t c = 0; c < n_new; c++) {
        new_indptr[c + 1] += new_indptr[c];
        fill[c] = new_indptr[c];
    }
    size_t n_entries = (size_t)(2 * n_pairs > 0 ? 2 * n_pairs : 1);
    new_indices = malloc(n_entries * sizeof(int64_t));
    new_weights = malloc(n_entries * sizeof(double));
    if (!new_indices || !new_weights) {
        goto done;
    }
    for (int64_t lo = 0; lo < n_new; lo++) {
        for (int64_t p = pair_start[lo]; p < pair_start[lo + 1]; p++) {
            int64_t hi = pair_hi[p];
            int64_t at = fill[lo]++;
            new_indices[at] = hi;
            new_weights[at] = pair_w[p];
            at = fill[hi]++;
            new_indices[at] = lo;
            new_weights[at] = pair_w[p];
        }
    }

    out->n = n_new;
    out->indptr = out->own_indptr = new_indptr;
    out->indices = out->own_indices = new_indices;
    out->weights = out->own_weights = new_weights;
    out->self_weight = out->own_self_weight = self_weight;
    new_indptr = NULL;
    new_indices = NULL;
    new_weights = NULL;
    self_weight = NULL;
    status = level_init_degrees(out);

done:
    free(self_weight);
    free(intra);
    free(bucket_start);
    free(fill);
    free(edge_hi);
    free(edge_w);
    free(pair_hi);
    free(pair_w);
    free(pair_start);
    free(slot);
    free(merged);
    free(new_indptr);
    free(new_indices);
    free(new_weights);
    return status;
}

static int check_csr(int64_t n, const int64_t *indptr, const int64_t *indices,
                     int64_t n_indices)
{
    if (indptr[0] != 0) {
        return LOUVAIN_BAD_START;
    }
    for (int64_t v = 0; v < n; v++) {
        if (indptr[v + 1] < indptr[v]) {
            return LOUVAIN_BAD_ORDER;
        }
    }
    if (indptr[n] != n_indices) {
        return LOUVAIN_BAD_END;
    }
    for (int64_t j = 0; j < n_indices; j++) {
        if (indices[j] < 0 || indices[j] >= n) {
            return LOUVAIN_BAD_INDEX;
        }
    }
    return LOUVAIN_OK;
}

/*
 * Louvain labels of the n-vertex CSR graph (indptr, indices, weights),
 * written to labels_out (n entries) compacted in order of first
 * appearance.  Returns LOUVAIN_OK, a LOUVAIN_BAD_* code for malformed CSR
 * input (nothing is read out of bounds), or LOUVAIN_NO_MEMORY.
 */
int repro_louvain_labels(int64_t n, const int64_t *indptr, const int64_t *indices,
                         const double *weights, int64_t n_indices,
                         double resolution, double min_gain, int64_t *labels_out)
{
    if (n < 1) {
        return LOUVAIN_BAD_END;
    }
    int status = check_csr(n, indptr, indices, n_indices);
    if (status != LOUVAIN_OK) {
        return status;
    }
    size_t size = (size_t)n;
    scratch_t s;
    s.community_degree = malloc(size * sizeof(double));
    s.link = malloc(size * sizeof(double));
    s.seen = calloc(size, 1);
    s.active = malloc(size);
    s.touched = malloc(size * sizeof(int64_t));
    s.map = malloc(size * sizeof(int64_t));
    int64_t *membership = malloc(size * sizeof(int64_t));
    int64_t *labels = malloc(size * sizeof(int64_t));
    int64_t *compacted = malloc(size * sizeof(int64_t));
    level_t level;
    memset(&level, 0, sizeof(level));
    status = LOUVAIN_NO_MEMORY;
    if (!s.community_degree || !s.link || !s.seen || !s.active || !s.touched
        || !s.map || !membership || !labels || !compacted) {
        goto done;
    }

    level.n = n;
    level.indptr = indptr;
    level.indices = indices;
    level.weights = weights;
    if (level_init_degrees(&level) != LOUVAIN_OK) {
        goto done;
    }
    for (int64_t v = 0; v < n; v++) {
        membership[v] = v;
    }
    for (;;) {
        int improved = one_level(&level, resolution, min_gain, labels, &s);
        int64_t n_new = compact(labels, level.n, compacted, s.map);
        for (int64_t v = 0; v < n; v++) {
            membership[v] = compacted[membership[v]];
        }
        if (!improved) {
            break;
        }
        level_t next;
        if (aggregate(&level, compacted, n_new, &next) != LOUVAIN_OK) {
            level_free(&next);
            goto done;
        }
        level_free(&level);
        level = next;
        if (level.n <= 1) {
            break;
        }
    }
    compact(membership, n, labels_out, s.map);
    status = LOUVAIN_OK;

done:
    level_free(&level);
    free(s.community_degree);
    free(s.link);
    free(s.seen);
    free(s.active);
    free(s.touched);
    free(s.map);
    free(membership);
    free(labels);
    free(compacted);
    return status;
}
