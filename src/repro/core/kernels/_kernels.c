/* Compiled flat-array kernels for the admission hot path.
 *
 * Hand-written C, built on demand by ``repro.core.kernels.build`` with
 * ``cc -O2 -fPIC -shared -fno-fast-math -ffp-contract=off`` and bound via
 * ctypes (no Python.h, no Cython — the container toolchain has a C
 * compiler but no extension-build stack, and the ABI below needs nothing
 * beyond raw pointers).
 *
 * Apart from the savepoint and the deviation below, every function is a
 * line-for-line port of a pure-Python reference in ``repro.core``
 * (profile._shift / compact / free_area, first_fit.earliest_fit,
 * greedy.candidates / place_chain, policies.select_candidate,
 * chain.is_trivially_infeasible).  The float
 * operations replicate the exact IEEE-754 op order of those references —
 * max/min keep Python's first-argument-on-ties convention, accumulations
 * run in the same sequence — and the build flags forbid contraction, so
 * results are bit-identical.  That is the contract the differential
 * fuzzer (``repro.verify.fuzz``) enforces against the Python reference.
 * Like the references, every comparison that decides a placement is
 * exact; only the two filters keep the references' slack
 * (AREA_EPS, QUICK_EPS below).  repro.core.resources has the time range.
 *
 * The one deliberate deviation: the loop skips work whose answer it
 * already holds.  ``ef_probe`` starts its walk past the start times that
 * the no-fit facts it kept rule out (the frontier above it; which facts a
 * full table keeps is at NFACTS).  ``area_reject`` passes a chain on a
 * stale prefix when a short backward sum proves the reference would (the
 * proof is above it); only otherwise does ``prof_ensure_prefix`` re-sum
 * the prefix, from the first entry a shift made stale.  The verdicts and
 * floats are the references' -- only ``probe_segments`` and
 * ``prefix_rebuilds`` are lower.  The facts rest on ONE invariant: while
 * the kernel alone mutates the profile, availability never increases
 * (the loop only commits; compaction only trims the past).  The facts,
 * the prefix and the filter's budget live in the per-profile context, so
 * they serve the next call too -- which is then indistinguishable from
 * one longer batch -- and the Python driver clears them whenever it
 * re-uploads the profile, i.e. after any Python-side mutation (a
 * release, rollback or capacity fault may have raised availability).
 * ``prof_shift`` clears the table if it ever sees a positive delta.
 *
 * One entry point does work, ``repro_admit_batch``: the whole serial
 * admission loop for a vector of jobs in ONE call — compaction, the two
 * filters, probing, tie-breaks and profile commits all run in C over one packed
 * record of the jobs (Prof.record) and the profile's flat arrays.  This
 * is the 100k+ decisions/sec path.  It also finishes the float accounting
 * it holds the operands for: each admitted job's finish and area (the
 * head of its row of Prof.out_rows), and the two quality accumulators
 * (path quality is the product of the task qualities).  Those belong to
 * the ARBITRATOR, not to the context: the driver writes them into the
 * struct whenever they are not the values last there, and reads them back
 * only on BATCH_OK.  After each job the loop publishes how many jobs it
 * has finished (Prof.progress, a release store once the job's out_chain
 * cell and row are written; repro_progress is the acquire load), so the
 * driver builds their decisions on its own thread while C decides the
 * next ones.  The other exports are the loader's ABI and layout
 * handshake.
 *
 * The loop mutates the live window in place.  Before a shift overwrites
 * a cell of the entry window it saves the entry cells from there up
 * (Save, below), so an error status puts back exactly what the call
 * overwrote: no call copies the whole window.  The file has no mutable
 * state of its own — ctypes releases the GIL for the call, and two
 * profiles may be decided on two threads.
 */

#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

#define AREA_EPS 1e-6   /* greedy._area_reject slack */
#define QUICK_EPS 1e-9  /* chain.is_trivially_infeasible slack */

#define ABI_VERSION 12

/* Status codes returned by repro_admit_batch (0 = OK).  Any nonzero
 * status means "this batch cannot be decided in C" — the context's live
 * window is as it was at entry (restored from the call's savepoint) and
 * the Python driver falls back to the serial loop. */
#define BATCH_OK 0
#define BATCH_ERR_OVERFLOW (-1)  /* profile outgrew the preallocated buffer */
#define BATCH_ERR_SHIFT (-2)     /* _shift precondition violated (scheduler bug) */
#define BATCH_ERR_CAPACITY (-3)  /* commit exceeded capacity (scheduler bug) */
#define BATCH_ERR_POLICY (-4)    /* unsupported tie-break policy code */

/* Tie-break policy codes (subset of TieBreakPolicy: RANDOM is excluded
 * from the fast path because it consumes a Python RNG stream). */
#define POLICY_PAPER 0
#define POLICY_FIRST 1
#define POLICY_PREFIX 2

/* Counter slots of a call's tallies (Prof.c, zeroed at entry).  On
 * BATCH_OK the first N_TALLIES are added to the running cells
 * (Prof.totals), which the Python side folds into the profile's
 * PerfRecorder when that is read; an error status adds nothing. */
#define K_SHIFT_OPS 0
#define K_SEGMENTS_TOUCHED 1
#define K_LAST_TOUCHED 2
#define K_PROBES 3
#define K_PROBE_SEGMENTS 4
#define K_PREFIX_REBUILDS 5
#define K_COMPACTIONS 6
#define K_CHAINS_PROBED 7
#define K_QUICK_REJECTED 8
#define K_AREA_REJECTED 9
#define K_COMMITS 10
#define K_ROW_CELLS 11 /* cells of out_rows written: not a statistic, the
                        * write-back's read length */
#define N_COUNTERS 12
#define N_TALLIES 11 /* K_SHIFT_OPS .. K_COMMITS */

/* Python max(a, b) returns the FIRST argument on ties (max(-0.0, 0.0)
 * is -0.0); same for min.  These macros keep that convention so even
 * signed zeros round-trip bit-identically. */
#define PYMAX(a, b) ((a) >= (b) ? (a) : (b))
#define PYMIN(a, b) ((a) <= (b) ? (a) : (b))

/* ------------------------------------------------------------------ */
/* bisect ports (exact semantics of the stdlib bisect module)          */
/* ------------------------------------------------------------------ */

static int64_t bisect_right_d(const double *a, int64_t n, double x)
{
    int64_t lo = 0, hi = n;
    while (lo < hi) {
        int64_t mid = (lo + hi) / 2;
        if (x < a[mid])
            hi = mid;
        else
            lo = mid + 1;
    }
    return lo;
}

/* ------------------------------------------------------------------ */
/* The availability profile over caller-owned flat buffers             */
/* ------------------------------------------------------------------ */

/* One no-fit fact (see the file header): no request at least w wide and
 * at least d long can start anywhere in [r, s). */
typedef struct {
    int64_t w;
    double d;
    double r;
    double s;
} Fact;

/* Size of the fact table, and the walk that earns a slot in a full one.
 * While the table has room every fact a walk learns goes in.  A full
 * table takes a fact that makes a stored one redundant (into the room
 * that one leaves) and a fact from a long walk, one across at least
 * n >> LONG_WALK_SHIFT of the n live segments (into slot fact_evict,
 * round-robin); the other facts of short walks it leaves out.  So it
 * keeps the facts that are costly to re-learn and spends no insert on
 * the rest.  A fact left out only lengthens some later walk, never
 * changes where it ends.
 *
 * Picked with tools/fact_sweep.py: seed 2024, --seconds 10 (batch_backlog
 * 266,667 decisions over ~6,800 live segments), 2-core host, decisions
 * and profiles identical in every row.  Segments walked per decision on
 * batch_backlog / serial_commit / serial_probe / four fuzz pressure
 * cases, then batch_backlog C seconds (median of 3 rounds, which spread
 * by up to 30%):
 *
 *   every fact, round-robin                 676 / 569 /  33 / 11.7  1.42
 *   every fact, oldest fact evicted         576 / 478 /  33 / 11.8  1.89
 *   long = n >> 4, as shipped               305 / 267 /  26 / 12.8  1.09
 *   long = n >> 2                           763 / 622 /  56 / 15.9  1.57
 *   long = n >> 3                           382 / 354 /  28 / 14.0  1.20
 *   long = n >> 5                           335 / 291 /  22 / 12.1  1.29
 *   long = n >> 6                           403 / 338 /  21 / 11.9  1.32
 *   long = 64 segments                      447 / 356 /  25 / 14.7  1.53
 *   long = 256 segments                     326 / 282 /  52 / 17.8  1.25
 *   long = 1024 segments                    443 / 456 / 441 / 22.8  1.11
 *   n >> 4, oldest fact evicted             295 / 267 /  26 / 12.9  1.08
 *   n >> 4, no redundant fact replaced      332 / 316 /  32 / 13.6  1.03
 *   n >> 4, compaction drops passed facts   306 / 291 /  21 / 12.8  1.27
 *   n >> 4, NFACTS 32                       590 / 482 /  33 / 14.8  1.32
 *   n >> 4, NFACTS 128                      199 / 183 /  20 / 11.6  1.41
 *
 * A sixteenth walks least of the shifts on the two deep workloads.  No
 * fixed count suits both them and serial_probe's shallower profile:
 * 256 doubles its walk, 1,024 walks 17x more.  Oldest-first eviction
 * saves 3% on batch_backlog only, and needs an age in every fact.  With
 * no redundant fact replaced the table keeps facts whose frontier has
 * moved on.  Dropping facts at compaction helps serial_probe and hurts
 * serial_commit.  128 facts cut the walk by a third, but each probe's
 * pass over them costs what that saves.  The pressure cases (300-500
 * segments) walk 9% more than with every fact kept.  On the fig4
 * profiles (svc_*, serial_fig4) the table holds at most two facts. */
#define NFACTS 64
#define LONG_WALK_SHIFT 4 /* a long walk crosses 1/16 of the live segments */

/* The per-profile context, built once by the Python driver
 * (compiled.Context mirrors this layout field for field; every member is
 * 8 bytes wide, and repro_ctx_size() lets the loader compare sizes).
 *
 * Live segments occupy [lo, lo + n) of times/avail; compaction advances
 * lo instead of memmoving, shifts splice in place within the window, and
 * lo carries over from one call to the next (the driver re-bases the
 * window to index 0 when the room above it runs out).  times_alt/avail_alt
 * hold a call's savepoint: the entry cells it overwrote, at the same
 * indexes (see Save).  prefix[0..n) is the free-area prefix cache over the
 * live window: entries below prefix_from survive a shift, the rest are
 * re-summed in the same order when the area filter cannot do without
 * them (the floats AvailabilityProfile._ensure_prefix produces from a
 * full rebuild). */
typedef struct {
    double *times;
    int64_t *avail;
    double *times_alt;
    int64_t *avail_alt;
    double *prefix;
    double *scr_t;  /* shift replacement-window scratch */
    int64_t *scr_a;
    int64_t cap_buf;  /* allocated length of each times/avail buffer */
    int64_t lo;
    int64_t n;
    int64_t capacity; /* machine capacity (processors) */
    int64_t prefix_valid;
    int64_t prefix_from; /* lowest index whose prefix entry is stale */
    int64_t area_spent;  /* steps of certified area sums since the prefix
                          * was last re-summed (area_reject's budget) */
    /* scheduler configuration */
    int64_t policy, do_compact;
    /* the staged jobs, one run of cells in arrival order: per job
     * [release][n_chains], per chain [n_tasks], per task a Task.  Every
     * cell is a double, the counts and widths too (exact: the packer
     * refuses a width above 2**53); no job has more than max_chains
     * chains, no chain more than max_tasks tasks. */
    const double *record;
    int64_t n_jobs; /* jobs in the record, set by the driver every call */
    int64_t progress; /* jobs finished and published (see the header) */
    int64_t max_chains, max_tasks;
    double *dscratch;  /* max_chains*max_tasks + 2*max_chains + max_tasks */
    int64_t *iscratch; /* 4*max_chains */
    int64_t *out_chain;  /* per job: chosen chain's index in the job, -1 = rejected */
    /* one row per ADMITTED job, in arrival order (c[K_COMMITS] rows,
     * c[K_ROW_CELLS] cells): [finish][area][start of each task of the
     * chosen chain] -- what cp.finish and cp.total_area compute */
    double *out_rows;
    /* the arbitrator's accumulators: in when the driver's differ, out on
     * BATCH_OK */
    double q_possible; /* += best chain quality of each job offered */
    double q_sum;      /* += the chosen chain's quality */
    int64_t c[N_COUNTERS]; /* this call's tallies and row cells */
    /* every BATCH_OK call's tallies, summed (K_LAST_TOUCHED: the latest
     * shift's); only the Python fold reads and zeroes them */
    int64_t totals[N_TALLIES];
    int64_t nfacts;
    int64_t fact_evict; /* slot of the next fact a full table gives up */
    Fact facts[NFACTS];
} Prof;

/* A call's savepoint: what it has overwritten of the entry window
 * [lo0, end) of times/avail.  The entry cells of [lo, end) are saved in
 * times_alt/avail_alt at the same indexes (lo == end: nothing saved).  A
 * shift writes only at or above its own index, so it extends the range
 * down to that index first; cells below the range hold their entry
 * values, but for one: the origin cell the last compaction clamped,
 * journaled as (clamp_at, clamp_old).  A local of repro_admit_batch. */
typedef struct {
    int64_t lo, end;
    int64_t clamp_at; /* -1: no clamped cell */
    double clamp_old;
} Save;

/* Save the entry cells [at, sv->lo) before a write at absolute index at
 * (cells at or above sv->end were outside the entry window). */
static void save_from(Prof *p, Save *sv, int64_t at)
{
    if (at >= sv->lo)
        return;
    size_t k = (size_t)(sv->lo - at);
    memcpy(p->times_alt + at, p->times + at, k * sizeof(double));
    memcpy(p->avail_alt + at, p->avail + at, k * sizeof(int64_t));
    if (sv->clamp_at >= at && sv->clamp_at < sv->lo)
        p->times_alt[sv->clamp_at] = sv->clamp_old; /* its entry value */
    sv->lo = at;
}

/* Put back the entry window: the clamped cell first, then the saved
 * range (which wins where the two overlap), then the window's bounds. */
static void save_restore(Prof *p, const Save *sv, int64_t lo0, int64_t n0)
{
    if (sv->clamp_at >= 0)
        p->times[sv->clamp_at] = sv->clamp_old;
    size_t k = (size_t)(sv->end - sv->lo);
    memcpy(p->times + sv->lo, p->times_alt + sv->lo, k * sizeof(double));
    memcpy(p->avail + sv->lo, p->avail_alt + sv->lo, k * sizeof(int64_t));
    p->lo = lo0;
    p->n = n0;
}

/* port of AvailabilityProfile._shift (validation included); saves into
 * sv what it is about to overwrite */
static int prof_shift(Prof *p, Save *sv, double t0, double t1, int64_t delta)
{
    if (isnan(t0) || isnan(t1))
        return BATCH_ERR_SHIFT;
    if (t1 <= t0)
        return BATCH_ERR_SHIFT;
    if (isinf(t1))
        return BATCH_ERR_SHIFT;
    double *times = p->times + p->lo;
    int64_t *avail = p->avail + p->lo;
    int64_t n = p->n;
    /* _index_at(t0): the segment holding the left edge; `last` is the
     * final shifted segment, `trailing` marks t1 strictly inside it. */
    if (t0 < times[0])
        return BATCH_ERR_SHIFT;
    int64_t i = bisect_right_d(times, n, t0) - 1;
    int64_t j = bisect_right_d(times, n, t1) - 1;
    int trailing = times[j] != t1;
    int64_t last = trailing ? j : j - 1;
    /* Validate the whole window before touching anything. */
    if (delta < 0) {
        int64_t tightest = avail[i];
        for (int64_t k = i + 1; k <= last; k++)
            if (avail[k] < tightest)
                tightest = avail[k];
        if (tightest < -delta)
            return BATCH_ERR_CAPACITY;
    } else {
        int64_t widest = avail[i];
        for (int64_t k = i + 1; k <= last; k++)
            if (avail[k] > widest)
                widest = avail[k];
        if (widest + delta > p->capacity)
            return BATCH_ERR_CAPACITY;
    }
    /* Build the replacement window, merging equal neighbours on the fly. */
    double *nt = p->scr_t;
    int64_t *na = p->scr_a;
    int64_t w = 0;
    int64_t prev;
    if (t0 > times[i]) {
        nt[w] = times[i];
        na[w] = avail[i];
        w += 1;
        prev = avail[i];
    } else {
        prev = (i > 0) ? avail[i - 1] : -1;
    }
    double start = t0;
    for (int64_t k = i; k <= last; k++) {
        int64_t value = avail[k] + delta;
        if (value != prev) {
            nt[w] = (k == i) ? start : times[k];
            na[w] = value;
            w += 1;
            prev = value;
        }
    }
    if (trailing) {
        nt[w] = t1;
        na[w] = avail[last];
        w += 1;
    }
    int64_t hi = last + 1;
    if (!trailing && hi < n && avail[hi] == prev)
        hi += 1; /* absorb the right border segment's breakpoint */
    int64_t new_n = n - (hi - i) + w;
    if (p->lo + new_n > p->cap_buf)
        return BATCH_ERR_OVERFLOW;
    save_from(p, sv, p->lo + i); /* nothing below i is written */
    if (w != hi - i) {
        memmove(times + i + w, times + hi, (size_t)(n - hi) * sizeof(double));
        memmove(avail + i + w, avail + hi, (size_t)(n - hi) * sizeof(int64_t));
    }
    memcpy(times + i, nt, (size_t)w * sizeof(double));
    memcpy(avail + i, na, (size_t)w * sizeof(int64_t));
    p->n = new_n;
    if (delta > 0)
        p->nfacts = 0; /* availability rose: no no-fit fact survives */
    p->prefix_valid = 0;
    if (i < p->prefix_from)
        p->prefix_from = i;
    p->c[K_SHIFT_OPS] += 1;
    int64_t touched = last - i + 1;
    p->c[K_SEGMENTS_TOUCHED] += touched;
    p->c[K_LAST_TOUCHED] = touched;
    return BATCH_OK;
}

/* port of AvailabilityProfile.compact; journals the origin cell it
 * clamps in sv, and gives the last clamped cell, now below the window,
 * its old value back */
static void prof_compact(Prof *p, Save *sv, double before)
{
    double *times = p->times + p->lo;
    if (before <= times[0])
        return;
    int64_t i = bisect_right_d(times, p->n, before) - 1;
    if (i < 0)
        i = 0;
    if (i == 0)
        return;
    if (sv->clamp_at >= 0)
        p->times[sv->clamp_at] = sv->clamp_old;
    sv->clamp_at = -1;
    p->lo += i;
    p->n -= i;
    times = p->times + p->lo;
    if (times[0] < before) {
        sv->clamp_at = p->lo;
        sv->clamp_old = times[0];
        times[0] = before;
    }
    p->prefix_valid = 0;
    p->prefix_from = 0; /* the origin moved: every entry changes */
    p->c[K_COMPACTIONS] += 1;
}

/* port of AvailabilityProfile._ensure_prefix: the same sequential sum,
 * resumed from the first stale entry (the accumulator there is the
 * stored prefix[k - 1], so every addition is the one a rebuild from 0
 * performs). */
static void prof_ensure_prefix(Prof *p)
{
    if (p->prefix_valid)
        return;
    const double *times = p->times + p->lo;
    const int64_t *avail = p->avail + p->lo;
    double *prefix = p->prefix;
    int64_t k = p->prefix_from;
    if (k == 0) {
        prefix[0] = 0.0;
        k = 1;
    }
    double acc = prefix[k - 1];
    for (; k < p->n; k++) {
        acc += (double)avail[k - 1] * (times[k] - times[k - 1]);
        prefix[k] = acc;
    }
    p->prefix_valid = 1;
    p->prefix_from = p->n;
    p->area_spent = 0;
    p->c[K_PREFIX_REBUILDS] += 1;
}

/* port of AvailabilityProfile._cumulative_free */
static double prof_cumulative_free(const Prof *p, double t)
{
    const double *times = p->times + p->lo;
    int64_t i = bisect_right_d(times, p->n, t) - 1;
    return p->prefix[i] + (double)(p->avail + p->lo)[i] * (t - times[i]);
}

/* port of AvailabilityProfile.free_area (guards hoisted to callers) */
static double prof_free_area(Prof *p, double t0, double t1)
{
    if (t1 <= t0)
        return 0.0;
    prof_ensure_prefix(p);
    return prof_cumulative_free(p, t1) - prof_cumulative_free(p, t0);
}

/* ------------------------------------------------------------------ */
/* The earliest-fit scan (port of first_fit.earliest_fit's walk)       */
/* ------------------------------------------------------------------ */

/* Raw walk over [0, n) starting at segment i; release already clamped
 * to the origin and i already bisected by the caller.  Returns 1 and
 * *out_start on success, 0 on failure; *out_scanned counts the
 * segments examined exactly like earliest_fit's probe_segments, and
 * *out_run_start is the start of the last run the walk considered (the
 * returned start, or the run at which it gave up): nothing this wide
 * and this long fits anywhere in [release, *out_run_start). */
static int scan_walk(const double *times, const int64_t *avail, int64_t n,
                     int64_t i, int64_t processors, double duration,
                     double release, double deadline, double *out_start,
                     int64_t *out_scanned, double *out_run_start)
{
    int64_t first = i;
    int have = avail[i] >= processors;
    double run_start = release;
    *out_scanned = 0;
    for (;;) {
        if (have) {
            /* Extend the run from segment i forward. */
            double finish = run_start + duration;
            int64_t j = i;
            for (;;) {
                double seg_end = (j + 1 < n) ? times[j + 1] : INFINITY;
                if (finish <= seg_end) {
                    *out_scanned = j - first + 1;
                    *out_run_start = run_start;
                    if (finish > deadline)
                        return 0;
                    *out_start = run_start;
                    return 1;
                }
                j += 1;
                if (avail[j] < processors) {
                    i = j;
                    have = 0;
                    break;
                }
            }
        }
        if (!have) {
            /* Advance to the next sufficient segment. */
            int64_t j = i + 1;
            while (j < n && avail[j] < processors)
                j += 1;
            if (j == n) {
                *out_scanned = n - first;
                *out_run_start = run_start;
                return 0; /* trailing segment deficient: never fits */
            }
            i = j;
            run_start = PYMAX(times[i], release);
            if (run_start + duration > deadline) {
                *out_scanned = i - first + 1;
                *out_run_start = run_start;
                return 0;
            }
            have = 1;
        }
    }
}

/* The no-fit frontier.
 *
 * While only repro_admit_batch mutates the profile availability never
 * increases (the loop only commits; compaction only trims the past), so a
 * finished walk for (w, d) from r whose last run began at s has proved a
 * fact that stays true until the driver re-uploads the profile: no
 * request at least as wide and at least as long can start in [r, s).
 * ef_probe keeps such facts in the context and starts each walk at the
 * largest s reachable from
 * its own release through applicable facts.  The deadline never enters
 * a fact (a walk that gave up on its deadline at s still ruled out
 * [r, s) on availability alone), so a tighter or laxer deadline reuses
 * it unchanged. */

/* Latest time up to which the facts rule out a start for (w, d) at or
 * after `from` — the end of the covered region that contains it; *since
 * becomes the earliest r of the facts used, so the caller's own fact can
 * cover their union.  One pass over the table, which is sorted by r: from
 * only grows, so a fact passed over stays inapplicable, and the first fact
 * with r > from ends the pass. */
static double facts_frontier(const Prof *p, int64_t w, double d, double from,
                             double *since)
{
    for (int64_t k = 0; k < p->nfacts; k++) {
        const Fact *f = &p->facts[k];
        if (f->r > from)
            break;
        if (f->s > from && f->w <= w && f->d <= d) {
            from = f->s;
            if (f->r < *since)
                *since = f->r;
        }
    }
    return from;
}

/* Record (w, d, r, s) at its slot in r order, dropping every fact it
 * makes redundant (one that applies to no request and no release this one
 * does not, and ends no later) without reordering the rest.  No stored
 * fact can make the new one redundant: it would have applied in
 * facts_frontier and carried the walk past s.  If none was dropped from
 * a full table, the new fact goes in only when `evict` is set: the fact
 * in slot fact_evict makes room, and the next slot is the next victim.
 * Otherwise the table is left as it was. */
static void facts_insert(Prof *p, int64_t w, double d, double r, double s,
                         int evict)
{
    Fact *facts = p->facts;
    int64_t n = 0;
    for (int64_t k = 0; k < p->nfacts; k++) {
        const Fact *f = &facts[k];
        if (!(w <= f->w && d <= f->d && r <= f->r && s >= f->s))
            facts[n++] = *f;
    }
    if (n == NFACTS) {
        if (!evict)
            return;
        int64_t v = p->fact_evict;
        p->fact_evict = (v + 1) % NFACTS;
        n -= 1;
        memmove(facts + v, facts + v + 1, (size_t)(n - v) * sizeof(Fact));
    }
    int64_t k = n;
    for (; k > 0 && facts[k - 1].r > r; k--)
        facts[k] = facts[k - 1];
    facts[k] = (Fact){w, d, r, s};
    p->nfacts = n + 1;
}

/* Full earliest_fit port (pre-checks + clamp + bisect + walk) behind the
 * frontier skip, used by the batched admission loop. */
static int ef_probe(Prof *p, int64_t processors, double duration,
                    double release, double deadline, double *out_start)
{
    p->c[K_PROBES] += 1;
    if (processors > p->capacity)
        return 0;
    if (release + duration > deadline)
        return 0;
    const double *times = p->times + p->lo;
    const int64_t *avail = p->avail + p->lo;
    int64_t n = p->n;
    release = PYMAX(release, times[0]);
    double since = release;
    double from = facts_frontier(p, processors, duration, release, &since);
    int64_t i = bisect_right_d(times, n, from) - 1;
    int64_t scanned = 0;
    double run_start;
    int found = scan_walk(times, avail, n, i, processors, duration, from,
                          deadline, out_start, &scanned, &run_start);
    p->c[K_PROBE_SEGMENTS] += scanned;
    if (run_start > from) /* the walk learnt something the table lacked */
        facts_insert(p, processors, duration, since, run_start,
                     scanned >= n >> LONG_WALK_SHIFT);
    return found;
}

/* ------------------------------------------------------------------ */
/* Chain-level helpers (ports from greedy.py / chain.py / policies.py) */
/* ------------------------------------------------------------------ */

/* One task of the record: four cells. */
typedef struct {
    double procs; /* an integer value; converted where the profile needs one */
    double dur;
    double deadline;
    double quality;
} Task;

/* chain.is_trivially_infeasible (eff is caller scratch of >= n tasks) */
static int quick_reject(const Task *t, int64_t n, int64_t capacity, double *eff)
{
    double maxw = t[0].procs;
    for (int64_t k = 1; k < n; k++)
        if (t[k].procs > maxw)
            maxw = t[k].procs;
    if (maxw > (double)capacity)
        return 1;
    for (int64_t k = 0; k < n; k++)
        eff[k] = t[k].deadline;
    for (int64_t k = n - 2; k >= 0; k--)
        eff[k] = PYMIN(eff[k], eff[k + 1] - t[k + 1].dur);
    double elapsed = 0.0;
    for (int64_t k = 0; k < n; k++) {
        elapsed += t[k].dur;
        if (elapsed > eff[k] + QUICK_EPS)
            return 1;
    }
    return 0;
}

/* chain.total_area: sum(t.area) == 0.0 + p0*d0 + p1*d1 + ... --
 * sequential, same floats as the Python property (0.0 + a == a exactly
 * for the positive areas the model validates). */
static double chain_area(const Task *t, int64_t n)
{
    double acc = 0.0;
    for (int64_t k = 0; k < n; k++)
        acc += t[k].procs * t[k].dur;
    return acc;
}

/* quality.chain_quality: compose_product, 1.0 times each quality, left
 * to right */
static double chain_quality(const Task *t, int64_t n)
{
    double acc = 1.0;
    for (int64_t k = 0; k < n; k++)
        acc *= t[k].quality;
    return acc;
}

/* greedy._area_reject, verdict for verdict: reject iff F < T - AREA_EPS,
 * where T is the chain's area and F what prof_free_area returns.  With a
 * valid prefix F costs two bisections.  With a stale one it costs a
 * re-sum of n - prefix_from entries, so the window's free area is first
 * summed backwards from t1, and the filter passes without F as soon as
 * that partial sum proves F >= T (so F >= fl(T - AREA_EPS): the
 * reference passes too).
 *
 * The proof.  u = 2^-53, gamma_k = k u / (1 - k u), K the capacity, A the
 * exact free area of [t0, t1); every term is >= 0, nothing cancels.
 *
 * - The backward sum S of m terms avail * (hi - lo) (two roundings each)
 *   added in turn from 0.0 (m - 1 roundings) is sum x_i (1 + theta_i),
 *   |theta_i| <= gamma_{m+1}.  So A, at least the exact partial sum, is
 *   at least S / (1 + gamma_{m+1}) = S (1 - (m + 1) u) >= S (1 - gamma_{m+1}).
 * - F = fl(C(t1) - C(t0)), C(t) = prefix[i] + avail[i] * (t - times[i]):
 *   at most n terms from the origin with at most n + 1 roundings each,
 *   so C(t) is within gamma_{n+1} K (t - origin) of its exact value and
 *   |F - A| <= 2 gamma_{n+1} (1 + u) K (t1 - origin) + u A
 *           <= 2 gamma_{n+2} K (t1 - origin).
 *   E is that bound computed with gamma_{n+4}: the two extra u pay for
 *   the four roundings of computing it.
 * - The test fl(S * (1 - (m + 4) u)) >= fl(T + E), whose factor is exact
 *   in a double, gives S (1 - (m + 1) u) >= T + E after its own two
 *   roundings.  Hence F >= A - E >= T.
 *
 * A pass is certified only where the reference passes, so every verdict
 * and every counter but K_PREFIX_REBUILDS are the reference's.  What is
 * not certified -- the window exhausted, or the budget spent -- re-sums
 * and compares as the reference does.  The budget is the ski-rental
 * rule: the certified steps since the last re-sum (area_spent) may not
 * exceed the re-sum they stand in for, n - prefix_from, so a stale
 * stretch costs at most twice the re-sum it replaces.  Backwards,
 * because a window's far end lies past the backlog, where the profile is
 * free: certified after 11 steps per stale filter call on batch_backlog
 * and 8 on serial_commit, against 179 and 135 summing forwards from t0. */
#define U 0x1p-53

static int area_reject(Prof *p, double release, double final_deadline,
                       double total_area)
{
    const double *times = p->times + p->lo;
    const int64_t *avail = p->avail + p->lo;
    double origin = times[0];
    double t0 = PYMAX(release, origin);
    double t1 = release + final_deadline;
    if (isinf(t1))
        return 0;
    if (t1 <= t0)
        return 1;
    if (!p->prefix_valid) {
        int64_t n = p->n;
        int64_t budget = n - p->prefix_from - p->area_spent;
        double g = (double)(n + 4) * U;
        double e = 2.0 * (g / (1.0 - g)) * (double)p->capacity * (t1 - origin);
        double need = total_area + e;
        double s = 0.0, hi = t1;
        int64_t m = 0;
        /* the segment holding t1's left side: on a breakpoint, the one
         * starting there would add a zero-width term (t1 > t0 >= times[0],
         * so k > 0 then) */
        int64_t k = bisect_right_d(times, n, t1) - 1;
        if (times[k] == t1)
            k -= 1;
        for (; m < budget; k--) {
            s += (double)avail[k] * (hi - PYMAX(times[k], t0));
            m += 1;
            if (s * (1.0 - (double)(m + 4) * U) >= need) {
                p->area_spent += m;
                return 0;
            }
            if (times[k] <= t0)
                break; /* the window is exhausted */
            hi = times[k];
        }
    }
    return prof_free_area(p, t0, t1) < total_area - AREA_EPS;
}
#undef U

/* policies._prefix_key three-way comparison: Python tuple lexicographic
 * order over chain.prefix_areas() (shorter prefix of an equal run sorts
 * first). */
static int prefix_cmp(const Task *a, int64_t na, const Task *b, int64_t nb)
{
    int64_t m = (na < nb) ? na : nb;
    double acc_a = 0.0, acc_b = 0.0;
    for (int64_t k = 0; k < m; k++) {
        acc_a += a[k].procs * a[k].dur;
        acc_b += b[k].procs * b[k].dur;
        if (acc_a < acc_b)
            return -1;
        if (acc_a > acc_b)
            return 1;
    }
    if (na < nb)
        return -1;
    if (na > nb)
        return 1;
    return 0;
}

/* ------------------------------------------------------------------ */
/* Exported API                                                        */
/* ------------------------------------------------------------------ */

int64_t repro_abi_version(void)
{
    return ABI_VERSION;
}

/* sizeof the context, for the loader's layout handshake */
int64_t repro_ctx_size(void)
{
    return (int64_t)sizeof(Prof);
}

/* Every member of Prof in declaration order, names and offsetof from one
 * list: two swapped 8-byte fields, which sizeof cannot see, fail the load. */
#define PROF_FIELDS(X)                                                        \
    X(times) X(avail) X(times_alt) X(avail_alt) X(prefix) X(scr_t) X(scr_a)  \
    X(cap_buf) X(lo) X(n) X(capacity) X(prefix_valid) X(prefix_from)         \
    X(area_spent) X(policy) X(do_compact) X(record) X(n_jobs) X(progress)    \
    X(max_chains) X(max_tasks) X(dscratch) X(iscratch) X(out_chain)          \
    X(out_rows) X(q_possible) X(q_sum) X(c) X(totals) X(nfacts)              \
    X(fact_evict) X(facts)

const char *repro_ctx_fields(void)
{
#define X(f) #f " "
    return PROF_FIELDS(X);
#undef X
}

const int64_t *repro_ctx_offsets(void)
{
#define X(f) offsetof(Prof, f),
    static const int64_t offsets[] = {PROF_FIELDS(X)};
#undef X
    return offsets;
}

/* How many jobs the running (or finished) call has published: their
 * out_chain cells, and the rows of the admitted ones, may be read. */
int64_t repro_progress(const Prof *p)
{
    return __atomic_load_n(&p->progress, __ATOMIC_ACQUIRE);
}

/* The whole serial admission loop for the p->n_jobs jobs staged in the
 * context, in one call.
 *
 * On BATCH_OK the context's live window is the profile after the batch,
 * out_chain[j] holds the chosen chain's index in job j (-1 = rejected),
 * out_rows one row per admitted job, and q_possible/q_sum have taken every
 * job's best and every chosen chain's quality, job by job in arrival order
 * (the serial loop's own additions), and totals its tallies.  Any error
 * status leaves the live window, both accumulators and the totals as at
 * entry and drops what the call learnt.
 * Replays greedy.candidates exactly -- every chain probed, behind
 * quick_reject and area_reject -- then select_candidate's earliest-finish
 * + policy tie-break. */
int64_t repro_admit_batch(Prof *p)
{
    const int64_t n_jobs = p->n_jobs;
    const int64_t policy = p->policy;
    const int64_t capacity = p->capacity;
    const int64_t max_chains = p->max_chains, max_tasks = p->max_tasks;
    double *dscratch = p->dscratch;
    int64_t *iscratch = p->iscratch;
    int64_t *counters = p->c;
    double q_possible = p->q_possible, q_sum = p->q_sum;
    if (policy != POLICY_PAPER && policy != POLICY_FIRST &&
        policy != POLICY_PREFIX)
        return BATCH_ERR_POLICY;
    memset(counters, 0, sizeof p->c);
    __atomic_store_n(&p->progress, 0, __ATOMIC_RELEASE);
    const int64_t lo0 = p->lo, n0 = p->n;
    Save sv = {lo0 + n0, lo0 + n0, -1, 0.0};

    double *cand_starts = dscratch;                      /* [MC][MT] */
    double *cand_finish = cand_starts + max_chains * max_tasks;
    double *cand_area = cand_finish + max_chains;
    double *eff = cand_area + max_chains;                /* [MT] */
    int64_t *cand_chain = iscratch;
    int64_t *tied = cand_chain + max_chains;
    int64_t *chain_at = tied + max_chains; /* the job's chains: first task's cell */
    int64_t *chain_n = chain_at + max_chains; /* ... and task count */
    const double *record = p->record;
#define TASKS(c) ((const Task *)(record + chain_at[c]))
#define PREFIX_LT(a, b) \
    (prefix_cmp(TASKS(a), chain_n[a], TASKS(b), chain_n[b]) < 0)

    int64_t cell = 0; /* the next job's first cell */
    for (int64_t jb = 0; jb < n_jobs; jb++) {
        double release = record[cell];
        int64_t n_chains = (int64_t)record[cell + 1];
        cell += 2;
        for (int64_t c = 0; c < n_chains; c++) {
            chain_n[c] = (int64_t)record[cell];
            chain_at[c] = cell + 1;
            cell += 1 + 4 * chain_n[c];
        }
        if (p->do_compact)
            prof_compact(p, &sv, release);
        int64_t ncand = 0;
        double best_q = 0.0; /* job.best_quality: Python's max, first on ties */
        for (int64_t c = 0; c < n_chains; c++) {
            const Task *tasks = TASKS(c);
            int64_t ntasks = chain_n[c];
            double q = chain_quality(tasks, ntasks);
            if (c == 0 || q > best_q)
                best_q = q;
            counters[K_CHAINS_PROBED] += 1;
            if (quick_reject(tasks, ntasks, capacity, eff)) {
                counters[K_QUICK_REJECTED] += 1;
                continue;
            }
            double ca = chain_area(tasks, ntasks);
            if (area_reject(p, release, tasks[ntasks - 1].deadline, ca)) {
                counters[K_AREA_REJECTED] += 1;
                continue;
            }
            /* place_chain: first fit per task */
            double earliest = PYMAX(release, (p->times + p->lo)[0]);
            double *starts = cand_starts + ncand * max_tasks;
            int ok = 1;
            for (int64_t t = 0; t < ntasks; t++) {
                double s;
                /* past quick_reject the width is at most the capacity */
                if (!ef_probe(p, (int64_t)tasks[t].procs, tasks[t].dur,
                              earliest, release + tasks[t].deadline, &s)) {
                    ok = 0;
                    break;
                }
                starts[t] = s;
                earliest = s + tasks[t].dur;
            }
            if (!ok)
                continue;
            cand_chain[ncand] = c;
            cand_finish[ncand] = earliest; /* last start + duration */
            cand_area[ncand] = ca;
            ncand += 1;
        }
        q_possible += best_q;
        if (ncand == 0) {
            p->out_chain[jb] = -1;
            __atomic_store_n(&p->progress, jb + 1, __ATOMIC_RELEASE);
            continue;
        }
        /* select_candidate: earliest finish, then the policy tie-break */
        double best_finish = cand_finish[0];
        for (int64_t k = 1; k < ncand; k++)
            if (cand_finish[k] < best_finish)
                best_finish = cand_finish[k];
        int64_t ntied = 0;
        for (int64_t k = 0; k < ncand; k++)
            if (cand_finish[k] == best_finish)
                tied[ntied++] = k;
        int64_t chosen;
        if (ntied == 1 || policy == POLICY_FIRST) {
            chosen = tied[0];
        } else if (policy == POLICY_PREFIX) {
            chosen = tied[0];
            for (int64_t k = 1; k < ntied; k++)
                if (PREFIX_LT(cand_chain[tied[k]], cand_chain[chosen]))
                    chosen = tied[k];
        } else {
            /* PAPER: max window utilization -- over the one window the
             * tied candidates share, the largest own area -- then min
             * prefix key */
            double best_area = cand_area[tied[0]];
            for (int64_t k = 1; k < ntied; k++)
                if (cand_area[tied[k]] > best_area)
                    best_area = cand_area[tied[k]];
            chosen = -1;
            for (int64_t k = 0; k < ntied; k++) {
                if (cand_area[tied[k]] == best_area) {
                    if (chosen < 0 ||
                        PREFIX_LT(cand_chain[tied[k]], cand_chain[chosen]))
                        chosen = tied[k];
                }
            }
        }
        /* commit: reserve every task interval in chain order */
        int64_t cc = cand_chain[chosen];
        const Task *ctasks = TASKS(cc);
        int64_t cn = chain_n[cc];
        const double *starts = cand_starts + chosen * max_tasks;
        double *row = p->out_rows + counters[K_ROW_CELLS];
        for (int64_t t = 0; t < cn; t++) {
            double s = starts[t];
            int st = prof_shift(p, &sv, s, s + ctasks[t].dur,
                                -(int64_t)ctasks[t].procs);
            if (st != BATCH_OK) {
                save_restore(p, &sv, lo0, n0);
                p->nfacts = 0;
                p->prefix_valid = 0;
                p->prefix_from = 0;
                p->area_spent = 0;
                return st;
            }
            row[2 + t] = s;
        }
        row[0] = cand_finish[chosen];
        row[1] = cand_area[chosen];
        counters[K_ROW_CELLS] += 2 + cn;
        p->out_chain[jb] = cc;
        __atomic_store_n(&p->progress, jb + 1, __ATOMIC_RELEASE);
        counters[K_COMMITS] += 1;
        q_sum += chain_quality(ctasks, cn);
    }
#undef PREFIX_LT
#undef TASKS
    p->q_possible = q_possible;
    p->q_sum = q_sum;
    for (int k = 0; k < N_TALLIES; k++)
        if (k != K_LAST_TOUCHED)
            p->totals[k] += counters[k];
    if (counters[K_SHIFT_OPS])
        p->totals[K_LAST_TOUCHED] = counters[K_LAST_TOUCHED];
    return BATCH_OK;
}
