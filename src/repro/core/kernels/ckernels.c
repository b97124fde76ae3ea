/*
 * Engine hot kernels for the ``c`` kernel backend.
 *
 * Built lazily by repro.core.kernels.c_backend (``cc -O2 -shared
 * -fPIC``) and loaded through cffi's ABI mode; the declarations in
 * ``CDEF`` there must match the signatures below.  Semantics are
 * defined by the numpy backend (numpy_backend.py) and pinned to it by
 * the equivalence suites: same packed race keys, same commit records,
 * same charges.  Only winner-slab contents (a cache) may differ.
 *
 * Layouts: every array is C-contiguous.  masks[lane * n + unit] holds
 * a Unit's Reg as a uint64 bit set (bit t = an event t layers above
 * the lane's popped depth; bit 63 can be set).  win[(lane * n + unit)
 * * nd + base] caches the packed race winner of sink ``unit`` at
 * relative base depth ``base`` (-1 = missing).  Bool arrays are one
 * byte per element.  Packed keys are non-negative, so C's truncating
 * division and remainder agree with Python's floor forms.
 */
#include <stdint.h>
#include <stdlib.h>

#define NO_CANDIDATE ((int64_t)1 << 62)
#define NEED_INF ((int64_t)1 << 30)

typedef struct {
    const int64_t *pair_base; /* n x n; diagonal = NO_CANDIDATE */
    const int64_t *depth_lut; /* 65 entries; [64] = NO_CANDIDATE */
    const int64_t *bpacked;   /* n boundary keys */
    int64_t n;
    int64_t radix;
    int64_t hops_div;
    int64_t rows;
    int64_t cols;
} geometry;

/* One sink's packed winner against one lane's Reg row at base depth b
 * (b < 64), with ``pending`` bits (commits not yet applied to the
 * slab) masked out when non-NULL: the best pair candidate over every
 * event-holding Unit, the sink's own vertical candidate, its boundary
 * key — minimum wins. */
static inline int64_t race_row(const uint64_t *row, const uint64_t *pending,
                               int64_t sink, unsigned b, const geometry *g)
{
    const int64_t *pb = g->pair_base + sink * g->n;
    int64_t best = g->bpacked[sink];
    for (int64_t a = 0; a < g->n; a++) {
        uint64_t w = pending ? row[a] & ~pending[a] : row[a];
        w >>= b;
        if (!w)
            continue;
        int64_t key = pb[a];
        if (key >= NO_CANDIDATE)
            continue;
        int64_t cand = key + g->depth_lut[__builtin_ctzll(w)];
        if (cand < best)
            best = cand;
    }
    uint64_t own = pending ? row[sink] & ~pending[sink] : row[sink];
    own = (own >> b) >> 1;
    if (own) {
        int64_t t = __builtin_ctzll(own) + 1;
        int64_t cand = (t * 2048 + t) * g->radix;
        if (cand < best)
            best = cand;
    }
    return best;
}

/* Does a present cached winner still race to a live event bit?  The
 * shift is clipped at 63 like the numpy backend's (a shift of 64 or
 * more is undefined in C). */
static inline int entry_valid(int64_t e, const uint64_t *row, int64_t sink,
                              int64_t b, int64_t radix)
{
    int64_t src1 = e % radix;
    int64_t t_rel = (e / radix) % 128;
    int64_t target;
    if (src1 > 0)
        target = src1 - 1;
    else if (t_rel > 0)
        target = sink;
    else
        return 1; /* boundary spikes are always available */
    int64_t shift = b + t_rel;
    if (shift > 63)
        shift = 63;
    return (int)((row[target] >> shift) & 1u);
}

void race(const geometry *g, const uint64_t *masks, const int64_t *s,
          const int64_t *i, const int64_t *b, int64_t m, int64_t *out)
{
    for (int64_t j = 0; j < m; j++)
        out[j] = race_row(masks + s[j] * g->n, NULL, i[j], (unsigned)b[j], g);
}

void valid_entries(const geometry *g, const int64_t *entries,
                   const uint64_t *masks, const int64_t *s, const int64_t *i,
                   const int64_t *b, int64_t m, uint8_t *out)
{
    for (int64_t j = 0; j < m; j++)
        out[j] = entries[j] >= 0
            && entry_valid(entries[j], masks + s[j] * g->n, i[j], b[j],
                           g->radix);
}

/* Exact per-lane minimum winner hops over flattened (lane, sink, base)
 * triples.  Valid entries count as they are; missing entries are raced
 * (and mark the lane's slab dirty); a stale entry is a lower bound
 * (matches only remove candidates) and is re-raced only while its bound
 * could still lower the lane's running minimum, which only decreases. */
void survey_need(const geometry *g, const uint64_t *masks, int64_t *win,
                 int64_t nd, uint8_t *win_dirty, const int64_t *s,
                 const int64_t *i, const int64_t *b, const int64_t *pos,
                 int64_t m, int64_t *need, int64_t n_top)
{
    const int64_t n = g->n;
    for (int64_t p = 0; p < n_top; p++)
        need[p] = NEED_INF;
    for (int64_t j = 0; j < m; j++) {
        const int64_t lane = s[j], sink = i[j], base = b[j], p = pos[j];
        const uint64_t *row = masks + lane * n;
        int64_t *slot = win + (lane * n + sink) * nd + base;
        int64_t e = *slot;
        if (e >= 0) {
            int64_t h = (e / g->hops_div) >> 1;
            if (entry_valid(e, row, sink, base, g->radix)) {
                if (h < need[p])
                    need[p] = h;
                continue;
            }
            if (h >= need[p])
                continue; /* stale bound cannot improve the minimum */
        }
        int64_t best = race_row(row, NULL, sink, (unsigned)base, g);
        *slot = best;
        if (e < 0)
            win_dirty[lane] = 1;
        int64_t h = (best / g->hops_div) >> 1;
        if (h < need[p])
            need[p] = h;
    }
}

/* The scalar engine's winner race for many (sink, base) pairs against
 * one Reg row; empty Units drop out on their zero mask. */
void winners_bulk(const geometry *g, const uint64_t *row,
                  const int64_t *sinks, const int64_t *bases, int64_t m,
                  int64_t *out)
{
    for (int64_t j = 0; j < m; j++)
        out[j] = race_row(row, NULL, sinks[j], (unsigned)bases[j], g);
}

/* The commit-level conflict scan at base depth b, hit for hit the
 * numpy backend's sequential scan: a hit consumed as an earlier
 * match's source is skipped; a hit whose pre-raced winner lost its
 * target re-races against the post-commit state; boundary and pair
 * records, the timeout-lump ``skips`` adjustment, late row clears and
 * per-lane charge totals come out as flat records.  Only the winner
 * slab is written.
 *
 * ``out`` holds, in order: rec_pos, rec_u, rec_t, rec_u2, rec_t2,
 * rec_port (n_all each); g_pos, g_total, g_l0, g_match (n_groups
 * each); fc_pos, fc_row, clear_pos, clear_unit, clear_bits (2 * n_all
 * + 2 each).  ``counts`` receives the record, group, row-clear and
 * bit-clear counts.  Returns 0, or -1 when scratch allocation fails. */
int commit_scan(const geometry *g, const uint64_t *masks, int64_t *win,
                int64_t nd, const int64_t *row_counts, const int64_t *popped,
                const int64_t *cur, int64_t n_groups, int64_t b,
                const int64_t *rel, const int64_t *units,
                const int64_t *entries, const int64_t *hops,
                const uint8_t *matchable, int64_t n_all,
                const int64_t *budget, const int64_t *rowcost, int64_t *out,
                int64_t *counts)
{
    const int64_t n = g->n, radix = g->radix, rows = g->rows,
                  cols = g->cols;
    const int64_t radix128 = 128 * radix;
    const int64_t cap2 = 2 * n_all + 2;
    int64_t *rec_pos = out, *rec_u = rec_pos + n_all, *rec_t = rec_u + n_all,
            *rec_u2 = rec_t + n_all, *rec_t2 = rec_u2 + n_all,
            *rec_port = rec_t2 + n_all;
    int64_t *g_pos = rec_port + n_all, *g_total = g_pos + n_groups,
            *g_l0 = g_total + n_groups, *g_match = g_l0 + n_groups;
    int64_t *fc_pos = g_match + n_groups, *fc_row = fc_pos + cap2,
            *clear_pos = fc_row + cap2, *clear_unit = clear_pos + cap2;
    uint64_t *clear_bits = (uint64_t *)(clear_unit + cap2);

    /* Per-lane scratch, reset through touch lists after every group so
     * a call costs O(hits), not O(lanes * units). */
    uint64_t *pending = calloc((size_t)(2 * n), sizeof(uint64_t));
    uint64_t *orig = pending + n;
    uint8_t *flags = calloc((size_t)(3 * n + 64 * n), 1);
    uint8_t *orig_set = flags, *mset = flags + n, *cleared = flags + 2 * n;
    uint8_t *consumed = flags + 3 * n; /* unit * 64 + depth */
    int64_t *touch = malloc((size_t)(4 * cap2 + rows) * sizeof(int64_t));
    if (!pending || !flags || !touch) {
        free(pending);
        free(flags);
        free(touch);
        return -1;
    }
    int64_t *ptouch = touch, *otouch = ptouch + cap2, *ctouch = otouch + cap2,
            *fc_hit_row = ctouch + cap2, *row_scratch = fc_hit_row + cap2;

    int64_t n_rec = 0, n_g = 0, n_fc = 0, n_cl = 0;
    int64_t lo = 0;
    while (lo < n_all) {
        const int64_t p = rel[lo];
        int64_t hi = lo;
        while (hi < n_all && rel[hi] == p)
            hi++;
        const int64_t lane = cur[p];
        const uint64_t *row = masks + lane * n;
        const int64_t bgt = budget[p];
        const int64_t t_cost = 2 * bgt + 2;
        const int64_t pop_l = popped[lane];
        int64_t n_t = 0;
        for (int64_t k = lo; k < hi; k++) {
            if (matchable[k])
                mset[units[k]] = 1;
            else
                n_t++;
        }
        int64_t cost = 0, l0_dec = 0, skips = 0;
        int any_m = 0;
        int64_t n_pt = 0, n_ot = 0, n_ct = 0;
        const int64_t fc_start = n_fc;
        for (int64_t k = lo; k < hi; k++) {
            if (!matchable[k])
                continue;
            const int64_t u = units[k];
            if (consumed[u * 64 + b])
                continue; /* consumed as a source earlier this level */
            int64_t w = entries[k];
            int64_t h = hops[k];
            int64_t s1 = w % radix;
            int64_t tr = (w / radix) % 128;
            int64_t tu = -1, td = -1, port = 0;
            int bdy;
            if (s1 > 0) {
                tu = s1 - 1;
                td = b + tr;
                bdy = 0;
            } else if (tr > 0) {
                tu = u;
                td = b + tr;
                bdy = 0;
            } else {
                bdy = 1;
                port = (w / radix128) % 8;
            }
            if (!orig_set[u]) {
                orig_set[u] = 1;
                orig[u] = row[u];
                otouch[n_ot++] = u;
            }
            if (!bdy) {
                /* Valid winners target a live bit, so td < 64; the mask
                 * keeps a corrupted slab from indexing out of bounds. */
                if (consumed[tu * 64 + (td & 63)]) {
                    /* The pre-raced winner's target was consumed by an
                     * earlier commit: re-race against the post-commit
                     * state (what the token would see). */
                    w = race_row(row, pending, u, (unsigned)b, g);
                    win[(lane * n + u) * nd + b] = w;
                    h = (w / g->hops_div) >> 1;
                    if (h > bgt) {
                        cost += t_cost;
                        continue;
                    }
                    s1 = w % radix;
                    tr = (w / radix) % 128;
                    if (s1 > 0) {
                        tu = s1 - 1;
                        td = b + tr;
                    } else if (tr > 0) {
                        tu = u;
                        td = b + tr;
                    } else {
                        bdy = 1;
                        port = (w / radix128) % 8;
                    }
                }
                if (!bdy && !orig_set[tu]) {
                    orig_set[tu] = 1;
                    orig[tu] = row[tu];
                    otouch[n_ot++] = tu;
                }
            }
            /* Commit: clear the sink bit (and the source event). */
            any_m = 1;
            if (!pending[u])
                ptouch[n_pt++] = u;
            const uint64_t pu = pending[u] | ((uint64_t)1 << b);
            pending[u] = pu;
            consumed[u * 64 + b] = 1;
            ctouch[n_ct++] = u * 64 + b;
            if (b == 0)
                l0_dec++;
            const int64_t r_hit = u / cols;
            if (!(orig[u] & ~pu) && !cleared[u]) {
                cleared[u] = 1;
                fc_pos[n_fc] = p;
                fc_row[n_fc] = r_hit;
                fc_hit_row[n_fc] = r_hit;
                n_fc++;
            }
            if (bdy) {
                rec_pos[n_rec] = p;
                rec_u[n_rec] = u;
                rec_t[n_rec] = pop_l + b;
                rec_u2[n_rec] = -1;
                rec_t2[n_rec] = -1;
                rec_port[n_rec] = port;
                n_rec++;
                cost += t_cost;
                continue;
            }
            td &= 63;
            if (!pending[tu])
                ptouch[n_pt++] = tu;
            const uint64_t pt = pending[tu] | ((uint64_t)1 << td);
            pending[tu] = pt;
            consumed[tu * 64 + td] = 1;
            ctouch[n_ct++] = tu * 64 + td;
            if (td == b && tu > u && !mset[tu])
                skips++; /* a later timeout hit lost its bit: the token
                            skips it, so it leaves the timeout lump */
            if (td == 0)
                l0_dec++;
            if (!(orig[tu] & ~pt) && !cleared[tu]) {
                cleared[tu] = 1;
                fc_pos[n_fc] = p;
                fc_row[n_fc] = tu / cols;
                fc_hit_row[n_fc] = r_hit;
                n_fc++;
            }
            rec_pos[n_rec] = p;
            rec_u[n_rec] = u;
            rec_t[n_rec] = pop_l + b;
            rec_u2[n_rec] = tu;
            rec_t2[n_rec] = pop_l + td;
            rec_port[n_rec] = 0;
            n_rec++;
            cost += 2 * h + 2;
        }
        cost += (n_t - skips) * t_cost;
        /* Row-token charges: the static scan cost unless a commit
         * emptied a unit's row before the token reached it. */
        int late = 0;
        for (int64_t k = fc_start; k < n_fc; k++)
            late |= fc_row[k] > fc_hit_row[k];
        int64_t total;
        if (late) {
            for (int64_t r = 0; r < rows; r++)
                row_scratch[r] = row_counts[lane * rows + r];
            for (int64_t k = fc_start; k < n_fc; k++)
                if (fc_row[k] > fc_hit_row[k])
                    row_scratch[fc_row[k]]--;
            total = cost;
            for (int64_t r = 0; r < rows; r++)
                total += row_scratch[r] > 0 ? cols : 1;
        } else {
            total = cost + rowcost[p];
        }
        g_pos[n_g] = p;
        g_total[n_g] = total;
        g_l0[n_g] = l0_dec;
        g_match[n_g] = any_m;
        n_g++;
        for (int64_t k = 0; k < n_pt; k++) {
            const int64_t v = ptouch[k];
            clear_pos[n_cl] = p;
            clear_unit[n_cl] = v;
            clear_bits[n_cl] = pending[v];
            n_cl++;
            pending[v] = 0;
            cleared[v] = 0;
        }
        for (int64_t k = 0; k < n_ot; k++)
            orig_set[otouch[k]] = 0;
        for (int64_t k = 0; k < n_ct; k++)
            consumed[ctouch[k]] = 0;
        for (int64_t k = lo; k < hi; k++)
            mset[units[k]] = 0;
        lo = hi;
    }
    counts[0] = n_rec;
    counts[1] = n_g;
    counts[2] = n_fc;
    counts[3] = n_cl;
    free(pending);
    free(flags);
    free(touch);
    return 0;
}

/* Per selected lane: does any Reg hold an event at its exposed depth?
 * Depths of 64 or more hold none (the numpy shift gives 0 there). */
void exposed_any(const uint64_t *masks, int64_t n, const int64_t *sel,
                 const int64_t *exposed, int64_t m, uint8_t *out)
{
    for (int64_t j = 0; j < m; j++) {
        const uint64_t *row = masks + sel[j] * n;
        const int64_t t = exposed[j];
        uint8_t hit = 0;
        if (t >= 0 && t < 64)
            for (int64_t a = 0; a < n && !hit; a++)
                hit = (row[a] >> t) & 1u;
        out[j] = hit;
    }
}

/* Charge one absorbed empty layer per lane; writes per-lane deltas. */
void charge_empty(int64_t *cycles, int64_t *popped,
                  int64_t *cycles_at_last_pop, const int64_t *lanes,
                  int64_t m, int64_t cost, int64_t *deltas)
{
    for (int64_t j = 0; j < m; j++) {
        const int64_t lane = lanes[j];
        cycles[lane] += cost;
        popped[lane] += 1;
        deltas[j] = cycles[lane] - cycles_at_last_pop[lane];
        cycles_at_last_pop[lane] = cycles[lane];
    }
}
