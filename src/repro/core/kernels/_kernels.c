/* Compiled flat-array kernels for the admission hot path.
 *
 * Hand-written C, built on demand by ``repro.core.kernels.build`` with
 * ``cc -O2 -fPIC -shared -fno-fast-math -ffp-contract=off`` and bound via
 * ctypes (no Python.h, no Cython — the container toolchain has a C
 * compiler but no extension-build stack, and the ABI below needs nothing
 * beyond raw pointers).
 *
 * Every function but two is a line-for-line port of a pure-Python
 * reference in ``repro.core`` (profile._shift / compact / free_area,
 * first_fit.earliest_fit, greedy._prober / place_chain,
 * policies.select_candidate, chain.is_trivially_infeasible).  The float
 * operations replicate the exact IEEE-754 op order of those references —
 * max/min keep Python's first-argument-on-ties convention, accumulations
 * run in the same sequence — and the build flags forbid contraction, so
 * results are bit-identical.  That is the contract the differential
 * fuzzer (``repro.verify.fuzz``) enforces against the Python reference.
 *
 * The one deliberate deviation: inside ``repro_admit_batch`` the loop
 * does not redo work an earlier step of the same call already settled.
 * ``ef_probe`` starts its walk past every start time an earlier probe
 * ruled out (the no-fit frontier above it), and ``prof_ensure_prefix``
 * re-sums the prefix only from the first entry a shift made stale.  Both
 * return the floats the references return — the walk visits fewer
 * segments, so ``probe_segments`` is lower than the serial scan's — and
 * both rest on ONE invariant: while the kernel alone mutates the profile,
 * availability never increases (the loop only commits; compaction only
 * trims the past).  The facts and the prefix resume point live in the
 * per-profile context, so they serve the next call too — which is then
 * indistinguishable from one longer batch — and the Python driver clears
 * them whenever it re-uploads the profile, i.e. after any Python-side
 * mutation (a release, rollback or capacity fault may have raised
 * availability).  A positive-delta shift inside the loop would break the
 * invariant: ``prof_shift`` clears the table if it ever sees one.
 *
 * One entry point does work, ``repro_admit_batch``: the whole serial
 * admission loop for a vector of jobs in ONE call — compaction, pruning,
 * probing, tie-breaks and profile commits all run in C over one packed
 * record of the jobs (Prof.record) and the profile's flat arrays.  This
 * is the 100k+ decisions/sec path.  It also finishes the float accounting
 * it holds the operands for: each admitted job's finish and area (the
 * head of its row of Prof.out_rows), and the two quality accumulators
 * (PRODUCT and MIN; MEAN is ``math.fsum`` and stays Python's).  Those belong to the ARBITRATOR, not
 * to the context: the driver writes them into the struct before every
 * call and reads them back only on BATCH_OK.  The other exports are the
 * loader's ABI and layout handshake.
 */

#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

#define TIME_EPS 1e-9   /* repro.core.resources.TIME_EPS */
#define AREA_EPS 1e-6   /* greedy._area_reject slack */
#define QUICK_EPS 1e-9  /* chain.is_trivially_infeasible slack */
#define UTIL_EPS 1e-12  /* policies.select_candidate utilization slack */

#define ABI_VERSION 5

/* Status codes returned by repro_admit_batch (0 = OK).  Any nonzero
 * status means "this batch cannot be decided in C" — the context's live
 * window is as it was at entry (the loop mutated the other buffer set)
 * and the Python driver falls back to the serial loop. */
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

/* Quality composition codes (Prof.qmode); 0 = MEAN, which is math.fsum
 * and stays the driver's. */
#define QMODE_PRODUCT 1
#define QMODE_MIN 2

/* Counter slots, zeroed at entry and accumulated into ProfileStats /
 * PerfRecorder by the Python driver after a successful batch. */
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
#define K_PRUNED_DOMINATED 10
#define K_COMMITS 11
#define K_ROW_CELLS 12 /* cells of out_rows written: not a statistic, the
                        * write-back's read length */
#define N_COUNTERS 13

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

/* Size of the fact table, replaced round-robin once full.  What picked
 * it: the 266,667-job batch_backlog stream (seed 2024, chunks of 1,024,
 * ~6,800 live segments, continuous durations so few shapes repeat), C
 * call seconds / segments walked per decision on this sandbox — no table
 * 4.90 / 8,159; 8: 3.12 / 3,488; 16: 1.95 / 2,156; 32: 1.62 / 1,190;
 * 64: 1.24 / 626; 128: 1.53 / 352; 256: 2.09 / 235.  Past 64 the lookup
 * costs more than the walk it saves.  On the 56-segment svc_flood
 * profile the table holds a handful of facts and kernels.c_call_s stays
 * inside its run-to-run spread (four traced pairs: 0.092-0.108 s
 * before, 0.091-0.127 s after). */
#define NFACTS 64

/* The per-profile context, built once by the Python driver
 * (compiled.Context mirrors this layout field for field; every member is
 * 8 bytes wide, and repro_ctx_size() lets the loader compare sizes).
 *
 * Live segments occupy [lo, lo + n) of times/avail; compaction advances
 * lo instead of memmoving, shifts splice in place within the window.
 * times_alt/avail_alt are the second buffer set: a call copies the live
 * window there, mutates the copy and flips the two (cur says which set
 * the driver finds live), so an error status costs nothing to undo.
 * prefix[0..n) is the free-area prefix cache over the live window:
 * entries below prefix_from survive a shift, the rest are re-summed in
 * the same order when prefix_valid drops (the floats
 * AvailabilityProfile._ensure_prefix produces from a full rebuild). */
typedef struct {
    double *times;
    int64_t *avail;
    double *times_alt;
    int64_t *avail_alt;
    double *prefix;
    double *scr_t;  /* shift replacement-window scratch */
    int64_t *scr_a;
    int64_t cap_buf;  /* allocated length of each times/avail buffer */
    int64_t cur;
    int64_t lo;
    int64_t n;
    int64_t capacity; /* machine capacity (processors) */
    int64_t prefix_valid;
    int64_t prefix_from; /* lowest index whose prefix entry is stale */
    /* scheduler configuration */
    int64_t policy, use_dup, use_dom, use_cap, do_compact;
    /* the staged jobs, one run of cells in arrival order: per job
     * [release][n_chains], per chain [n_tasks], per task a Task.  Every
     * cell is a double, the counts and widths too (exact: the packer
     * refuses a width above 2**53); no job has more than max_chains
     * chains, no chain more than max_tasks tasks. */
    const double *record;
    int64_t max_chains, max_tasks;
    double *dscratch;  /* max_chains*max_tasks + 3*max_chains + max_tasks */
    int64_t *iscratch; /* 6*max_chains */
    int64_t *out_chain;  /* per job: chosen chain's index in the job, -1 = rejected */
    /* one row per ADMITTED job, in arrival order (c[K_COMMITS] rows,
     * c[K_ROW_CELLS] cells): [finish][area][start of each task of the
     * chosen chain] -- what cp.finish and cp.total_area compute */
    double *out_rows;
    /* the arbitrator's accumulators: in before every call, out on BATCH_OK */
    int64_t qmode;
    double q_possible; /* += best chain quality of each job offered */
    double q_sum;      /* += the chosen chain's quality */
    int64_t c[N_COUNTERS];
    int64_t nfacts;
    int64_t fact_evict; /* round-robin victim once the table is full */
    Fact facts[NFACTS];
} Prof;

/* port of AvailabilityProfile._shift (validation included) */
static int prof_shift(Prof *p, double t0, double t1, int64_t delta)
{
    if (isnan(t0) || isnan(t1))
        return BATCH_ERR_SHIFT;
    if (t1 <= t0 + TIME_EPS)
        return BATCH_ERR_SHIFT;
    if (isinf(t1))
        return BATCH_ERR_SHIFT;
    double *times = p->times + p->lo;
    int64_t *avail = p->avail + p->lo;
    int64_t n = p->n;
    /* _index_at(t0), then snap the left edge to a breakpoint. */
    if (t0 < times[0] - TIME_EPS)
        return BATCH_ERR_SHIFT;
    int64_t i = bisect_right_d(times, n, t0) - 1;
    if (i < 0)
        i = 0;
    if (fabs(times[i] - t0) <= TIME_EPS) {
        t0 = times[i];
    } else if (i + 1 < n && fabs(times[i + 1] - t0) <= TIME_EPS) {
        i += 1;
        t0 = times[i];
    }
    /* Right edge: `last` is the final shifted segment, `trailing` marks
     * t1 strictly inside it. */
    int64_t j = bisect_right_d(times, n, t1) - 1;
    int trailing = 0;
    int64_t last;
    if (fabs(times[j] - t1) <= TIME_EPS) {
        t1 = times[j];
        last = j - 1;
    } else if (j + 1 < n && fabs(times[j + 1] - t1) <= TIME_EPS) {
        t1 = times[j + 1];
        last = j;
    } else {
        last = j;
        trailing = 1;
    }
    if (t1 <= t0)
        return BATCH_OK; /* both edges snapped to the same breakpoint */
    if (last < i)
        return BATCH_ERR_SHIFT;
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

/* port of AvailabilityProfile.compact */
static void prof_compact(Prof *p, double before)
{
    double *times = p->times + p->lo;
    if (before <= times[0])
        return;
    int64_t i = bisect_right_d(times, p->n, before) - 1;
    if (i < 0)
        i = 0;
    if (i == 0)
        return;
    p->lo += i;
    p->n -= i;
    times = p->times + p->lo;
    if (times[0] < before)
        times[0] = before;
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
    p->c[K_PREFIX_REBUILDS] += 1;
}

/* port of AvailabilityProfile._cumulative_free */
static double prof_cumulative_free(const Prof *p, double t)
{
    const double *times = p->times + p->lo;
    int64_t i = bisect_right_d(times, p->n, t) - 1;
    if (i < 0)
        return 0.0;
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
            int64_t j = i;
            for (;;) {
                double seg_end = (j + 1 < n) ? times[j + 1] : INFINITY;
                if (seg_end - run_start >= duration - TIME_EPS) {
                    *out_scanned = j - first + 1;
                    *out_run_start = run_start;
                    if (run_start + duration > deadline + TIME_EPS)
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
            if (run_start + duration > deadline + TIME_EPS) {
                *out_scanned = i - first + 1;
                *out_run_start = run_start;
                return 0;
            }
            have = 1;
        }
    }
}

/* The no-fit frontier — with the prefix resume above, the only code in
 * this file that is not a port.
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
 * [r, s) on availability alone), so a tighter or laxer deadline — the
 * incumbent finish cap included — reuses it unchanged. */

/* Latest time up to which the facts rule out a start for (w, d) at or
 * after `from`; *since becomes the earliest r of the facts used, so the
 * caller's own fact can cover their union.  Iterated to a fixed point:
 * raising the bound can bring a later-starting fact into reach. */
static double facts_frontier(const Prof *p, int64_t w, double d, double from,
                             double *since)
{
    for (int again = 1; again;) {
        again = 0;
        for (int64_t k = 0; k < p->nfacts; k++) {
            const Fact *f = &p->facts[k];
            if (f->s > from && f->r <= from && f->w <= w && f->d <= d) {
                from = f->s;
                if (f->r < *since)
                    *since = f->r;
                again = 1;
            }
        }
    }
    return from;
}

/* Record (w, d, r, s), dropping every fact it makes redundant (one that
 * applies to no request and no release this one does not, and ends no
 * later).  No stored fact can make the new one redundant: it would have
 * applied in facts_frontier and carried the walk past s. */
static void facts_insert(Prof *p, int64_t w, double d, double r, double s)
{
    int64_t k = 0;
    while (k < p->nfacts) {
        const Fact *f = &p->facts[k];
        if (w <= f->w && d <= f->d && r <= f->r && s >= f->s)
            p->facts[k] = p->facts[--p->nfacts];
        else
            k += 1;
    }
    if (p->nfacts < NFACTS) {
        k = p->nfacts++;
    } else {
        k = p->fact_evict;
        p->fact_evict = (k + 1) % NFACTS;
    }
    p->facts[k] = (Fact){w, d, r, s};
}

/* Full earliest_fit port (pre-checks + clamp + bisect + walk) behind the
 * frontier skip, used by the batched admission loop. */
static int ef_probe(Prof *p, int64_t processors, double duration,
                    double release, double deadline, double *out_start)
{
    p->c[K_PROBES] += 1;
    if (processors > p->capacity)
        return 0;
    if (release + duration > deadline + TIME_EPS)
        return 0;
    const double *times = p->times + p->lo;
    const int64_t *avail = p->avail + p->lo;
    int64_t n = p->n;
    release = PYMAX(release, times[0]);
    double since = release;
    double from = facts_frontier(p, processors, duration, release, &since);
    int64_t i = bisect_right_d(times, n, from) - 1;
    if (i < 0)
        i = 0;
    int64_t scanned = 0;
    double run_start;
    int found = scan_walk(times, avail, n, i, processors, duration, from,
                          deadline, out_start, &scanned, &run_start);
    p->c[K_PROBE_SEGMENTS] += scanned;
    if (run_start > from) /* the walk learnt something the table lacked */
        facts_insert(p, processors, duration, since, run_start);
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

/* greedy._shape_key equality for chains a and b */
static int shape_equal(const Task *a, int64_t na, const Task *b, int64_t nb)
{
    if (na != nb)
        return 0;
    for (int64_t k = 0; k < na; k++) {
        if (a[k].procs != b[k].procs)
            return 0;
        if (a[k].dur != b[k].dur)
            return 0;
        if (a[k].deadline != b[k].deadline)
            return 0;
        if (a[k].quality != b[k].quality)
            return 0;
    }
    return 1;
}

/* greedy._harder_than_failed for one (chain, failed-chain) pair */
static int harder_than(const Task *c, int64_t nc, const Task *o, int64_t no)
{
    if (nc != no)
        return 0;
    for (int64_t k = 0; k < nc; k++) {
        if (!(c[k].procs >= o[k].procs))
            return 0;
        if (!(c[k].dur >= o[k].dur))
            return 0;
        if (!(c[k].deadline <= o[k].deadline))
            return 0;
    }
    return 1;
}

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

/* quality.chain_quality: compose_product (1.0 times each quality, left
 * to right) or compose_min (Python's min: the first smallest) */
static double chain_quality(const Task *t, int64_t n, int64_t qmode)
{
    double acc = (qmode == QMODE_PRODUCT) ? 1.0 : t[0].quality;
    for (int64_t k = 0; k < n; k++) {
        if (qmode == QMODE_PRODUCT)
            acc *= t[k].quality;
        else if (t[k].quality < acc)
            acc = t[k].quality;
    }
    return acc;
}

/* greedy._area_reject */
static int area_reject(Prof *p, double release, double final_deadline,
                       double total_area)
{
    double origin = (p->times + p->lo)[0];
    double t0 = PYMAX(release, origin);
    double t1 = release + final_deadline;
    if (isinf(t1))
        return 0;
    if (t1 <= t0)
        return 1;
    return prof_free_area(p, t0, t1) < total_area - AREA_EPS;
}

/* policies.window_utilization (cp.total_area == chain.total_area for
 * rigid placements: both are the same left-to-right float sum) */
static double window_util(Prof *p, double release, double finish,
                          double total_area)
{
    double origin = (p->times + p->lo)[0];
    double start = PYMAX(release, origin);
    double span = finish - start;
    if (span <= 0)
        return 1.0;
    double busy = (double)p->capacity * (finish - start) -
                  prof_free_area(p, start, finish);
    busy = busy + total_area;
    return busy / ((double)p->capacity * span);
}

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
    X(cap_buf) X(cur) X(lo) X(n) X(capacity) X(prefix_valid) X(prefix_from)  \
    X(policy) X(use_dup) X(use_dom) X(use_cap) X(do_compact) X(record)       \
    X(max_chains) X(max_tasks) X(dscratch) X(iscratch) X(out_chain)          \
    X(out_rows) X(qmode) X(q_possible) X(q_sum) X(c) X(nfacts) X(fact_evict) \
    X(facts)

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

/* make the other buffer set the live one */
static void prof_flip(Prof *p)
{
    double *t = p->times;
    int64_t *a = p->avail;
    p->times = p->times_alt;
    p->avail = p->avail_alt;
    p->times_alt = t;
    p->avail_alt = a;
    p->cur ^= 1;
}

/* The whole serial admission loop for the n_jobs staged in the context,
 * in one call.
 *
 * On BATCH_OK the context's live window is the profile after the batch,
 * out_chain[j] holds the chosen chain's index in job j (-1 = rejected),
 * out_rows one row per admitted job, and q_possible/q_sum have taken every
 * job's best and every chosen chain's quality, job by job in arrival order
 * (the serial loop's own additions).  Any error status leaves the live
 * window and both accumulators as at entry and drops what the call learnt.
 * Replays greedy._prober exactly: duplicate collapse, failure
 * propagation, incumbent finish capping, then select_candidate's
 * earliest-finish + policy tie-break. */
int64_t repro_admit_batch(Prof *p, int64_t n_jobs)
{
    const int64_t policy = p->policy, use_dup = p->use_dup;
    const int64_t use_dom = p->use_dom, use_cap = p->use_cap;
    const int64_t capacity = p->capacity;
    const int64_t max_chains = p->max_chains, max_tasks = p->max_tasks;
    double *dscratch = p->dscratch;
    int64_t *iscratch = p->iscratch;
    int64_t *counters = p->c;
    const int64_t qmode = p->qmode;
    double q_possible = p->q_possible, q_sum = p->q_sum;
    if (policy != POLICY_PAPER && policy != POLICY_FIRST &&
        policy != POLICY_PREFIX)
        return BATCH_ERR_POLICY;
    memset(counters, 0, sizeof p->c);
    const int64_t lo0 = p->lo, n0 = p->n;
    memcpy(p->times_alt, p->times + lo0, (size_t)n0 * sizeof(double));
    memcpy(p->avail_alt, p->avail + lo0, (size_t)n0 * sizeof(int64_t));
    prof_flip(p);
    p->lo = 0;

    double *cand_starts = dscratch;                      /* [MC][MT] */
    double *cand_finish = cand_starts + max_chains * max_tasks;
    double *cand_util = cand_finish + max_chains;
    double *cand_area = cand_util + max_chains;
    double *eff = cand_area + max_chains;                /* [MT] */
    int64_t *cand_chain = iscratch;
    int64_t *keyed = cand_chain + max_chains;
    int64_t *failed = keyed + max_chains;
    int64_t *tied = failed + max_chains;
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
            prof_compact(p, release);
        int64_t ncand = 0, nkeyed = 0, nfailed = 0;
        double cap = INFINITY;
        double best_q = 0.0; /* job.best_quality: Python's max, first on ties */
        for (int64_t c = 0; c < n_chains; c++) {
            const Task *tasks = TASKS(c);
            int64_t ntasks = chain_n[c];
            if (qmode) {
                double q = chain_quality(tasks, ntasks, qmode);
                if (c == 0 || q > best_q)
                    best_q = q;
            }
            if (use_dup) {
                int dup = 0;
                for (int64_t k = 0; k < nkeyed; k++) {
                    if (shape_equal(TASKS(keyed[k]), chain_n[keyed[k]], tasks,
                                    ntasks)) {
                        dup = 1;
                        break;
                    }
                }
                if (dup) {
                    counters[K_PRUNED_DOMINATED] += 1;
                    continue;
                }
                keyed[nkeyed++] = c;
            }
            if (use_dom && nfailed) {
                int harder = 0;
                for (int64_t k = 0; k < nfailed; k++) {
                    if (harder_than(tasks, ntasks, TASKS(failed[k]),
                                    chain_n[failed[k]])) {
                        harder = 1;
                        break;
                    }
                }
                if (harder) {
                    counters[K_PRUNED_DOMINATED] += 1;
                    continue;
                }
            }
            counters[K_CHAINS_PROBED] += 1;
            if (quick_reject(tasks, ntasks, capacity, eff)) {
                counters[K_QUICK_REJECTED] += 1;
                continue;
            }
            double ca = chain_area(tasks, ntasks);
            if (area_reject(p, release, tasks[ntasks - 1].deadline, ca)) {
                counters[K_AREA_REJECTED] += 1;
                if (use_dom)
                    failed[nfailed++] = c;
                continue;
            }
            /* place_chain: first fit per task under the capped deadline */
            double earliest = PYMAX(release, (p->times + p->lo)[0]);
            double *starts = cand_starts + ncand * max_tasks;
            int ok = 1;
            for (int64_t t = 0; t < ntasks; t++) {
                double dl = release + tasks[t].deadline;
                if (cap < dl)
                    dl = cap;
                double s;
                /* past quick_reject the width is at most the capacity */
                if (!ef_probe(p, (int64_t)tasks[t].procs, tasks[t].dur,
                              earliest, dl, &s)) {
                    ok = 0;
                    break;
                }
                starts[t] = s;
                earliest = s + tasks[t].dur;
            }
            if (!ok) {
                if (use_dom)
                    failed[nfailed++] = c;
                continue;
            }
            cand_chain[ncand] = c;
            cand_finish[ncand] = earliest; /* last start + duration */
            cand_area[ncand] = ca;
            ncand += 1;
            if (use_cap) {
                double new_cap = earliest + TIME_EPS;
                if (new_cap < cap)
                    cap = new_cap;
            }
        }
        q_possible += best_q;
        if (ncand == 0) {
            p->out_chain[jb] = -1;
            continue;
        }
        /* select_candidate: earliest finish, then the policy tie-break */
        double best_finish = cand_finish[0];
        for (int64_t k = 1; k < ncand; k++)
            if (cand_finish[k] < best_finish)
                best_finish = cand_finish[k];
        int64_t ntied = 0;
        for (int64_t k = 0; k < ncand; k++)
            if (cand_finish[k] <= best_finish + TIME_EPS)
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
            /* PAPER: max window utilization, then min prefix key */
            double best_util = -INFINITY;
            for (int64_t k = 0; k < ntied; k++) {
                int64_t ci = tied[k];
                double u = window_util(p, release, cand_finish[ci],
                                       cand_area[ci]);
                cand_util[k] = u;
                if (u > best_util)
                    best_util = u;
            }
            chosen = -1;
            for (int64_t k = 0; k < ntied; k++) {
                if (cand_util[k] >= best_util - UTIL_EPS) {
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
            int st = prof_shift(p, s, s + ctasks[t].dur,
                                -(int64_t)ctasks[t].procs);
            if (st != BATCH_OK) {
                prof_flip(p);
                p->lo = lo0;
                p->n = n0;
                p->nfacts = 0;
                p->prefix_valid = 0;
                p->prefix_from = 0;
                return st;
            }
            row[2 + t] = s;
        }
        row[0] = cand_finish[chosen];
        row[1] = cand_area[chosen];
        counters[K_ROW_CELLS] += 2 + cn;
        p->out_chain[jb] = cc;
        counters[K_COMMITS] += 1;
        if (qmode)
            q_sum += chain_quality(ctasks, cn, qmode);
    }
#undef PREFIX_LT
#undef TASKS
    p->q_possible = q_possible;
    p->q_sum = q_sum;
    return BATCH_OK;
}
