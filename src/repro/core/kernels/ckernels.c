/*
 * Engine hot kernels for the ``c`` kernel backend.
 *
 * Built lazily by repro.core.kernels.c_backend (``cc -O2 -shared
 * -fPIC``) and loaded through cffi's ABI mode; the declarations in
 * ``CDEF`` there must match the signatures below.  The file holds the
 * scalar engine's broadcast race, the two idle-layer helpers and the
 * batch engine's whole Controller loop; the lock-step Controller's
 * kernels stay numpy-only.  Semantics are defined by the numpy backend
 * (numpy_backend.py) and, for ``controller``, by the batch engine's
 * lock-step Controller (engine_batch.py), and pinned to them by the
 * equivalence suites: same packed race keys, same matches, same
 * charges.  Only winner-slab contents (a cache) may differ.
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
 * (b < 64): the best pair candidate over every event-holding Unit, the
 * sink's own vertical candidate, its boundary key — minimum wins. */
static inline int64_t race_row(const uint64_t *row, int64_t sink,
                               unsigned b, const geometry *g)
{
    const int64_t *pb = g->pair_base + sink * g->n;
    int64_t best = g->bpacked[sink];
    for (int64_t a = 0; a < g->n; a++) {
        uint64_t w = row[a] >> b;
        if (!w)
            continue;
        int64_t key = pb[a];
        if (key >= NO_CANDIDATE)
            continue;
        int64_t cand = key + g->depth_lut[__builtin_ctzll(w)];
        if (cand < best)
            best = cand;
    }
    uint64_t own = (row[sink] >> b) >> 1;
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

/* One survey sink: lower ``*need`` to the sink's winner hops.  A valid
 * entry counts as it is; a missing entry is raced (and marks the lane's
 * slab dirty); a stale entry is a lower bound (matches only remove
 * candidates) and is re-raced only while its bound could still lower
 * the running minimum, which only decreases. */
static inline void survey_sink(const geometry *g, const uint64_t *row,
                               int64_t *slot, uint8_t *dirty, int64_t sink,
                               int64_t base, int64_t *need)
{
    int64_t e = *slot;
    if (e >= 0) {
        int64_t h = (e / g->hops_div) >> 1;
        if (entry_valid(e, row, sink, base, g->radix)) {
            if (h < *need)
                *need = h;
            return;
        }
        if (h >= *need)
            return; /* stale bound cannot improve the minimum */
    }
    int64_t best = race_row(row, sink, (unsigned)base, g);
    *slot = best;
    if (e < 0)
        *dirty = 1;
    int64_t h = (best / g->hops_div) >> 1;
    if (h < *need)
        *need = h;
}

/* The scalar engine's winner race for many (sink, base) pairs against
 * one Reg row; empty Units drop out on their zero mask. */
void winners_bulk(const geometry *g, const uint64_t *row,
                  const int64_t *sinks, const int64_t *bases, int64_t m,
                  int64_t *out)
{
    for (int64_t j = 0; j < m; j++)
        out[j] = race_row(row, sinks[j], (unsigned)bases[j], g);
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

/* ------------------------------------------------------------------
 * The batch engine's Controller loop (QecoolEngineBatch._top_loop),
 * one lane at a time: lanes are independent machines, so no lock-step
 * is needed here.  Per iteration: shift-detection pops, the drain-retire
 * check, the sink survey, the idle park, analytic budget growth, one
 * sweep over base depths with the mid-sweep shift check, the budget
 * bump and the stall guard — until the lane parks, retires, suspends
 * or needs the engine's exact per-action walk (a handoff).
 *
 * The controller acts only where the numpy lock-step path lumps or
 * commits: the lane's deadline is infinite, or its wall is exact and
 * the lump cannot reach the deadline.  A sub-sweep that passes that
 * test has no observation point inside it, so its charge is the sum of
 * the scalar sweep's per-action charges, walked here hit by hit.
 * ------------------------------------------------------------------ */

enum { ST_PARKED = 0, ST_SUSPENDED = 1, ST_RETIRED = 2 };
enum { HO_TOP = 0, HO_ANALYTIC = 1, HO_SWEEP = 2 };
enum { CTL_OK = 0, CTL_DRAIN_STALL = -1, CTL_NO_PROGRESS = -2,
       CTL_OVERFLOW = -3 };
#define HO_FIELDS 7 /* lane, kind, then five kind-specific fields */

typedef struct {
    const geometry *g;
    uint64_t *masks;
    int64_t *m, *l0, *popped, *cycles, *cycles_at_last_pop, *row_counts;
    int64_t *win;
    int64_t nd;
    uint8_t *win_dirty;
    int64_t *match_rec, match_cap, n_match; /* 6 x match_cap */
    int64_t *pop_rec, pop_cap, n_pop;       /* 2 x pop_cap */
} ctl_state;

static inline int64_t row_scan_cost(const ctl_state *c, int64_t lane)
{
    const int64_t rows = c->g->rows, cols = c->g->cols;
    const int64_t *rc = c->row_counts + lane * rows;
    int64_t cost = rows;
    for (int64_t r = 0; r < rows; r++)
        if (rc[r] > 0)
            cost += cols - 1;
    return cost;
}

/* The scalar _pop on one lane: shift the Regs down a layer, keep row
 * occupancy and the layer-0 count, shift (or clear) the winner slab,
 * charge the shift and record the layer's cycle delta.  Returns the
 * charged cost, or -1 when the record buffer is full. */
static int64_t pop_lane(ctl_state *c, int64_t lane)
{
    const geometry *g = c->g;
    const int64_t n = g->n, nd = c->nd, cols = g->cols;
    uint64_t *row = c->masks + lane * n;
    int64_t *rc = c->row_counts + lane * g->rows;
    int64_t l0 = 0;
    uint64_t any = 0;
    if (c->n_pop >= c->pop_cap)
        return -1;
    for (int64_t a = 0; a < n; a++) {
        uint64_t w = row[a];
        if (w == 1)
            rc[a / cols]--;
        w >>= 1;
        row[a] = w;
        l0 += (int64_t)(w & 1u);
        any |= w;
    }
    c->l0[lane] = l0;
    c->m[lane]--;
    c->popped[lane]++;
    if (c->win_dirty[lane]) {
        int64_t *wl = c->win + lane * n * nd;
        if (!any) {
            /* Emptied Regs leave only dead entries: clear the row. */
            for (int64_t k = 0; k < n * nd; k++)
                wl[k] = -1;
            c->win_dirty[lane] = 0;
        } else {
            for (int64_t a = 0; a < n; a++) {
                int64_t *e = wl + a * nd;
                for (int64_t k = 0; k + 1 < nd; k++)
                    e[k] = e[k + 1];
                e[nd - 1] = -1;
            }
        }
    }
    const int64_t cost = 1 + row_scan_cost(c, lane);
    c->cycles[lane] += cost;
    c->pop_rec[c->n_pop] = lane;
    c->pop_rec[c->pop_cap + c->n_pop] =
        c->cycles[lane] - c->cycles_at_last_pop[lane];
    c->n_pop++;
    c->cycles_at_last_pop[lane] = c->cycles[lane];
    return cost;
}

static inline void clear_bit(ctl_state *c, int64_t lane, int64_t u,
                             int64_t t)
{
    uint64_t *w = c->masks + lane * c->g->n + u;
    *w &= ~((uint64_t)1 << t);
    if (t == 0)
        c->l0[lane]--;
    if (!*w)
        c->row_counts[lane * c->g->rows + u / c->g->cols]--;
}

/* The scalar _apply: commit sink ``u``'s match at depth ``b`` from its
 * packed winner ``e``.  Returns 1 for a boundary match, 0 for a pair,
 * -1 when the record buffer is full. */
static int apply_match(ctl_state *c, int64_t lane, int64_t u, int64_t b,
                       int64_t e)
{
    const int64_t radix = c->g->radix;
    const int64_t src1 = e % radix, t_rel = (e / radix) % 128;
    const int64_t pop_l = c->popped[lane];
    const int64_t k = c->n_match, cap = c->match_cap;
    if (k >= cap)
        return -1;
    int64_t *rec = c->match_rec;
    clear_bit(c, lane, u, b);
    rec[k] = lane;
    rec[cap + k] = u;
    rec[2 * cap + k] = pop_l + b;
    c->n_match++;
    if (src1 > 0 || t_rel > 0) {
        const int64_t v = src1 > 0 ? src1 - 1 : u;
        clear_bit(c, lane, v, b + t_rel);
        rec[3 * cap + k] = v;
        rec[4 * cap + k] = pop_l + b + t_rel;
        rec[5 * cap + k] = 0;
        return 0;
    }
    rec[3 * cap + k] = -1;
    rec[4 * cap + k] = -1;
    rec[5 * cap + k] = (e / (128 * radix)) % 8;
    return 1;
}

/* One base-depth sub-sweep, action by action (the scalar _sweep body
 * for one b), with no observation point inside: returns the summed
 * charge (-1 when the record buffer is full) and sets ``*matched``. */
static int64_t walk_level(ctl_state *c, int64_t lane, int64_t b,
                          int64_t budget, int *matched)
{
    const geometry *g = c->g;
    const int64_t n = g->n, rows = g->rows, cols = g->cols, nd = c->nd;
    const uint64_t *row = c->masks + lane * n;
    const int64_t *rc = c->row_counts + lane * rows;
    const int64_t t_cost = 2 * budget + 2;
    int64_t cost = 0;
    for (int64_t r = 0; r < rows; r++) {
        if (!rc[r]) {
            cost += 1;
            continue;
        }
        cost += cols;
        for (int64_t u = r * cols; u < (r + 1) * cols; u++) {
            /* Bits are only cleared, so the live bit test also skips
             * sinks consumed as sources earlier in this sub-sweep. */
            if (!((row[u] >> b) & 1u))
                continue;
            int64_t *slot = c->win + (lane * n + u) * nd + b;
            int64_t e = *slot;
            int64_t h;
            if (e >= 0) {
                h = (e / g->hops_div) >> 1;
                if (h > budget) {
                    /* A lower bound past the budget times out whether
                     * or not the entry is still valid. */
                    cost += t_cost;
                    continue;
                }
                if (!entry_valid(e, row, u, b, g->radix)) {
                    e = race_row(row, u, (unsigned)b, g);
                    *slot = e;
                    h = (e / g->hops_div) >> 1;
                }
            } else {
                e = race_row(row, u, (unsigned)b, g);
                *slot = e;
                c->win_dirty[lane] = 1;
                h = (e / g->hops_div) >> 1;
            }
            if (h > budget) {
                cost += t_cost;
                continue;
            }
            const int bdy = apply_match(c, lane, u, b, e);
            if (bdy < 0)
                return -1;
            *matched = 1;
            cost += bdy ? t_cost : 2 * h + 2;
        }
    }
    return cost;
}

/* Drive each lane's Controller (see the block comment above).
 *
 * Writes the slabs in place: masks, m, l0, popped, cycles,
 * cycles_at_last_pop, row_counts, budget, stall, parked, win, win_dirty
 * and wall (full-capacity, indexed by lane; deadline likewise, +inf =
 * unconstrained).  ``status`` (full capacity) receives ST_* for every
 * lane that settles, and is left untouched for handed-off lanes.
 * Records, sized by the caller from popcounts (a match consumes at
 * least one event bit, a pop one stored layer):
 *   match_rec  6 x match_cap: lane, unit, depth, unit2, depth2, port
 *              (unit2 = -1 for boundary matches), per-lane commit order;
 *   pop_rec    2 x pop_cap: lane, layer-cycle delta;
 *   handoff    HO_FIELDS per lane stopped short of settling:
 *              lane, HO_TOP (suspended on a pop's charge),
 *              HO_ANALYTIC + (cl_next, target, n_sinks, b_max,
 *              progressed), or HO_SWEEP + (budget, b_max, b,
 *              progressed).
 * counts receives the match, pop and handoff record counts.  Returns
 * CTL_OK or a CTL_* error code. */
int controller(const geometry *g, int64_t thv, int64_t nlimit,
               int64_t stall_limit, uint64_t *masks, int64_t *m,
               int64_t *l0, int64_t *popped, int64_t *cycles,
               int64_t *cycles_at_last_pop, int64_t *row_counts,
               int64_t *budget, int64_t *stall, uint8_t *parked,
               int64_t *win, int64_t nd, uint8_t *win_dirty,
               const uint8_t *drain, const uint8_t *wall_exact,
               double *wall, const double *deadline, const int64_t *lanes,
               int64_t n_lanes, int8_t *status, int64_t *match_rec,
               int64_t match_cap, int64_t *pop_rec, int64_t pop_cap,
               int64_t *handoff, int64_t *counts)
{
    ctl_state c = {g, masks, m, l0, popped, cycles, cycles_at_last_pop,
                   row_counts, win, nd, win_dirty,
                   match_rec, match_cap, 0, pop_rec, pop_cap, 0};
    const int64_t n = g->n;
    int64_t n_ho = 0;
    int rc = CTL_OK;
    for (int64_t j = 0; j < n_lanes; j++) {
        const int64_t lane = lanes[j];
        const uint64_t *row = masks + lane * n;
        const double dl = deadline[lane];
        const int finite = !__builtin_isinf(dl);
        const int exact = wall_exact[lane];
        int64_t *ho = handoff + n_ho * HO_FIELDS;
        for (;;) {
            int progressed = 0;
            /* Shift detection: pop while the oldest layer is clear. */
            while (m[lane] > 0 && l0[lane] == 0) {
                const int64_t cost = pop_lane(&c, lane);
                if (cost < 0) {
                    rc = CTL_OVERFLOW;
                    goto done;
                }
                budget[lane] = 1;
                progressed = 1;
                if (finite) {
                    wall[lane] += (double)cost;
                    if (wall[lane] >= dl) {
                        status[lane] = ST_SUSPENDED;
                        ho[0] = lane;
                        ho[1] = HO_TOP;
                        n_ho++;
                        goto next_lane;
                    }
                }
            }
            if (drain[lane] && m[lane] == 0) {
                status[lane] = ST_RETIRED;
                goto next_lane;
            }
            /* Survey: decodable sinks and the minimum winner hops. */
            int64_t b_max = m[lane] - 1;
            if (thv >= 0 && !drain[lane] && m[lane] - thv - 1 < b_max)
                b_max = m[lane] - thv - 1;
            int64_t n_sinks = 0, need = NEED_INF;
            if (b_max >= 0) {
                const uint64_t cutoff = ~(uint64_t)0 >> (63 - b_max);
                for (int64_t a = 0; a < n; a++)
                    n_sinks += __builtin_popcountll(row[a] & cutoff);
                if (n_sinks)
                    for (int64_t a = 0; a < n; a++)
                        for (uint64_t low = row[a] & cutoff; low;
                             low &= low - 1) {
                            const int64_t b = __builtin_ctzll(low);
                            survey_sink(g, row,
                                        win + (lane * n + a) * nd + b,
                                        win_dirty + lane, a, b, &need);
                        }
            }
            if (!n_sinks) {
                if (drain[lane] && m[lane] > 0) {
                    rc = CTL_DRAIN_STALL;
                    goto done;
                }
                status[lane] = ST_PARKED;
                budget[lane] = 1;
                parked[lane] = 1;
                goto next_lane;
            }
            /* Analytic budget growth over the fruitless sweeps. */
            int64_t bgt = budget[lane];
            if (need > bgt) {
                const int64_t target = need < nlimit ? need : nlimit;
                if (finite) {
                    const int64_t levels = target - bgt;
                    const int64_t total =
                        levels * (b_max + 1) * row_scan_cost(&c, lane)
                        + n_sinks * ((bgt + target - 1) * levels
                                     + 2 * levels);
                    if (!(exact && wall[lane] + (double)total < dl)) {
                        ho[0] = lane;
                        ho[1] = HO_ANALYTIC;
                        ho[2] = bgt;
                        ho[3] = target;
                        ho[4] = n_sinks;
                        ho[5] = b_max;
                        ho[6] = progressed;
                        n_ho++;
                        goto next_lane;
                    }
                    wall[lane] += (double)total;
                }
                bgt = target;
                budget[lane] = bgt;
            }
            /* One real sweep at the current budget. */
            int popped_mid = 0;
            for (int64_t b = 0; b <= b_max; b++) {
                int64_t n_hits = 0;
                for (int64_t a = 0; a < n; a++)
                    n_hits += (int64_t)((row[a] >> b) & 1u);
                const int64_t lump =
                    row_scan_cost(&c, lane) + n_hits * (2 * bgt + 2);
                if (finite
                    && !(exact && wall[lane] + (double)lump < dl)) {
                    ho[0] = lane;
                    ho[1] = HO_SWEEP;
                    ho[2] = bgt;
                    ho[3] = b_max;
                    ho[4] = b;
                    ho[5] = progressed;
                    ho[6] = 0;
                    n_ho++;
                    goto next_lane;
                }
                int matched = 0;
                const int64_t cost =
                    n_hits ? walk_level(&c, lane, b, bgt, &matched) : lump;
                if (cost < 0) {
                    rc = CTL_OVERFLOW;
                    goto done;
                }
                cycles[lane] += cost;
                if (finite)
                    wall[lane] += (double)cost;
                if (!matched)
                    continue;
                progressed = 1;
                /* Mid-sweep shift check (Algorithm 1, lines 18-22). */
                if (m[lane] > 0 && l0[lane] == 0) {
                    const int64_t pc = pop_lane(&c, lane);
                    if (pc < 0) {
                        rc = CTL_OVERFLOW;
                        goto done;
                    }
                    budget[lane] = 1;
                    if (finite) {
                        wall[lane] += (double)pc;
                        if (wall[lane] >= dl) {
                            status[lane] = ST_SUSPENDED;
                            ho[0] = lane;
                            ho[1] = HO_TOP;
                            n_ho++;
                            goto next_lane;
                        }
                    }
                    popped_mid = 1;
                    break;
                }
            }
            if (!popped_mid)
                budget[lane] = bgt < nlimit ? bgt + 1 : 1;
            if (progressed) {
                stall[lane] = 0;
            } else if (++stall[lane] > stall_limit) {
                rc = CTL_NO_PROGRESS;
                goto done;
            }
        }
    next_lane:;
    }
done:
    counts[0] = c.n_match;
    counts[1] = c.n_pop;
    counts[2] = n_ho;
    return rc;
}
