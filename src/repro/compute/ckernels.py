"""Compiled compute kernels: the hottest inner loops in C via ctypes.

PR 4 vectorized the compute phase, but profiling the quick RMAT
workload shows numpy *dispatch* still dominates: the INC engine issues
~30 small array ops per round (and the dependency-wave machinery on
top), matching the csl-experiments finding that per-op overhead
exceeds pure compute ~2.9x.  This module compiles the inner loops with
the system C compiler (the :mod:`repro.sim.cbuild` pattern from PR 2:
content-hashed build cache, atomic install, ``-ffp-contract=off``) and
exposes them behind the same bit-identity contract as the numpy twins.

The deeper win is *fusion*: the legacy engines are sequential
Gauss-Seidel loops, which numpy can only reproduce through
dependency-level wave scheduling -- but a C loop that processes the
ascending frontier one position at a time reproduces the sequential
semantics *directly*.  ``saga_inc_round`` runs one whole INC round
(recalculate + trigger + dedup) in a single call; ``saga_relax_round``
and ``saga_delta_pass`` do the same for the FS relaxation and
delta-stepping passes.  Float accumulation order is the sequential
order of the legacy loops by construction, NaN semantics follow numpy
(``np.minimum`` propagates NaN; ``inf - inf`` is not a change), and
the build forbids FMA contraction.

``saga_price_run`` prices one compute run for several structures in a
single pass (see :mod:`repro.compute.pricing`, whose numpy reference it
matches bit for bit).  Its per-iteration sums reproduce ``np.sum``'s
pairwise grouping rather than a sequential loop; ``saga_pairwise_sum``
exposes that sum so a test can pin it to the installed numpy.

Gates:

- ``SAGA_BENCH_NO_CCOMPUTE=1`` (or ``all``) disables every compiled
  compute kernel; a comma list of :data:`KERNEL_NAMES` (e.g.
  ``inc_round,price``) disables individual kernels, leaving the rest
  compiled.
- A failed build falls back to numpy with one ``RuntimeWarning`` naming
  the exception.  ``SAGA_BENCH_REQUIRE_CCOMPUTE=1`` turns it into a
  hard error instead (CI sets it so a broken toolchain cannot
  masquerade as a perf regression).
- ``SAGA_BENCH_LEGACY_COMPUTE=1`` bypasses the vectorized engines
  entirely, so these kernels never run on the legacy path.
- ``SAGA_BENCH_COMPUTE_THREADS=N`` runs the fused INC round on a
  persistent pthread pool.  Results are bit-identical at every thread
  count: the round is partitioned into flow-dependency levels, each
  level's recalculation is a pure parallel gather against the values
  array as of the previous level, and write-back, triggering, and
  dedup stay in the serial order.
"""

from __future__ import annotations

import ctypes
import os
import warnings
from typing import FrozenSet, Optional, Tuple

import numpy as np

from repro.sim.cbuild import load_library

#: Disable compiled compute kernels: "1"/"all", or a comma list of
#: kernel names (see :data:`KERNEL_NAMES`).
DISABLE_ENV = "SAGA_BENCH_NO_CCOMPUTE"

#: When set, a failed build raises instead of falling back to numpy.
REQUIRE_ENV = "SAGA_BENCH_REQUIRE_CCOMPUTE"

#: Thread count for the fused INC round (default 1 = serial).
THREADS_ENV = "SAGA_BENCH_COMPUTE_THREADS"

#: Individually gateable kernel names.
KERNEL_NAMES = frozenset(
    {
        "expand",
        "segment_reduce",
        "segment_sum",
        "inc_round",
        "relax_round",
        "delta_pass",
        "scatter",
        "price",
    }
)

#: Traversal shapes of ``saga_price_run`` (a structure's
#: ``vector_traversal_cost``; see :mod:`repro.compute.pricing`).
SHAPE_CONTIGUOUS = 0
SHAPE_STINGER = 1
SHAPE_DAH = 2

#: Cost-model fields ``saga_price_run`` reads, in its ``CM_*`` order.
PRICE_COST_FIELDS = (
    "probe_element",
    "probe_block_element",
    "pointer_chase",
    "hash_compute",
    "hash_probe",
    "hash_iterate_slot",
    "degree_query",
    "vertex_task_base",
    "neighbor_visit",
    "property_write",
    "cas",
    "queue_push",
    "task_dispatch",
)

#: Fused INC-round vertex functions (``saga_inc_round``'s ``op``).
OP_BFS = 0
OP_SSSP = 1
OP_SSWP = 2
OP_CC = 3
OP_MC = 4
OP_PR = 5

#: Fused relaxation ops (``saga_relax_round``'s ``op``).
RELAX_ADD1 = 0  # candidate = base + 1.0           (BFS)
RELAX_MINW = 1  # candidate = min(base, weight)    (SSWP)

_I64 = ctypes.c_int64
_I32 = ctypes.c_int32
_F64 = ctypes.c_double
_PTR = ctypes.c_void_p

_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <math.h>
#include <pthread.h>

/* Compute-phase inner loops.  Every function mirrors a numpy kernel
 * (or the legacy per-vertex loop it vectorizes) operation for
 * operation: identical IEEE float64 arithmetic in identical order, and
 * numpy's NaN semantics where min/max are involved (np.minimum /
 * np.maximum propagate NaN; C fmin/fmax do NOT, so comparisons are
 * written out with explicit x != x checks).
 *
 * CSR rows arrive as (starts, lens) rather than a packed indptr: the
 * incremental CSR store keeps per-row slack, so rows need not be
 * contiguous.  A packed CSR is the special case starts = indptr[:n].
 */

/* np.minimum: NaN wins; otherwise the smaller. */
static inline double take_min(double acc, double x)
{
    return (x < acc || x != x) ? x : acc;
}

static inline double take_max(double acc, double x)
{
    return (x > acc || x != x) ? x : acc;
}

/* expand_frontier: all adjacency rows of the frontier, in sequential
 * iteration order (frontier position major, neighbor order minor). */
void saga_expand(
    int64_t k,
    const int64_t *frontier,
    const int64_t *starts,
    const int64_t *lens,
    const int64_t *cols,
    const double *wts,
    int64_t *seg_out,
    int64_t *nbr_out,
    double *wt_out)
{
    int64_t p, j, r = 0;
    for (p = 0; p < k; p++) {
        int64_t v = frontier[p];
        int64_t s = starts[v];
        int64_t d = lens[v];
        for (j = 0; j < d; j++) {
            seg_out[r] = p;
            nbr_out[r] = cols[s + j];
            wt_out[r] = wts[s + j];
            r++;
        }
    }
}

/* segment_min / segment_max over back-to-back segments; empty segments
 * yield the identity, matching _segment_reduce. */
void saga_segment_reduce(
    int64_t nseg,
    const int64_t *counts,
    const double *terms,
    int32_t maximize,
    double identity,
    double *out)
{
    int64_t s, j, i = 0;
    for (s = 0; s < nseg; s++) {
        double acc = identity;
        int64_t c = counts[s];
        if (maximize) {
            for (j = 0; j < c; j++)
                acc = take_max(acc, terms[i + j]);
        } else {
            for (j = 0; j < c; j++)
                acc = take_min(acc, terms[i + j]);
        }
        out[s] = acc;
        i += c;
    }
}

/* segment_sum_ordered: out[seg[i]] += terms[i] in array order -- the
 * exact accumulation order of np.bincount (and a Python += loop).
 * out must arrive zeroed. */
void saga_segment_sum(
    int64_t m,
    const int64_t *seg,
    const double *terms,
    double *out)
{
    int64_t i;
    for (i = 0; i < m; i++)
        out[seg[i]] += terms[i];
}

/* np.minimum.at / np.maximum.at: sequential scatter extreme. */
void saga_scatter_extreme(
    int64_t m,
    const int64_t *idx,
    const double *terms,
    int32_t maximize,
    double *out)
{
    int64_t i;
    for (i = 0; i < m; i++) {
        int64_t t = idx[i];
        out[t] = maximize ? take_max(out[t], terms[i])
                          : take_min(out[t], terms[i]);
    }
}

static int cmp_i64(const void *a, const void *b)
{
    int64_t x = *(const int64_t *)a, y = *(const int64_t *)b;
    return (x > y) - (x < y);
}

/* ---- INC-round vertex recalculation ------------------------------
 * The Table-I vertex functions, factored out so the serial loop and
 * the threaded gather run the exact same IEEE float64 operations in
 * the exact same order (the build forbids FMA contraction, so
 * inlining context cannot change a single bit). */
static double inc_recalc(
    int64_t v,
    const double *values,
    const int64_t *in_starts,
    const int64_t *in_lens,
    const int64_t *in_cols,
    const double *in_wts,
    const int64_t *out_deg,
    int32_t op,
    int64_t pinned,
    double pr_base,
    double damping)
{
    double old = values[v];
    double acc;
    int64_t s, d, j;
    if (v == pinned)
        return old;
    s = in_starts[v];
    d = in_lens[v];
    switch (op) {
    case 0: /* BFS: min(values[u] + 1) */
        acc = INFINITY;
        for (j = 0; j < d; j++)
            acc = take_min(acc, values[in_cols[s + j]] + 1.0);
        return acc;
    case 1: /* SSSP: min(values[u] + w) */
        acc = INFINITY;
        for (j = 0; j < d; j++)
            acc = take_min(acc, values[in_cols[s + j]] + in_wts[s + j]);
        return acc;
    case 2: /* SSWP: max(0, max(min(values[u], w))) */
        acc = -INFINITY;
        for (j = 0; j < d; j++) {
            double vu = values[in_cols[s + j]];
            double w = in_wts[s + j];
            acc = take_max(acc, (vu < w) ? vu : w);
        }
        /* np.maximum(acc, 0.0): NaN propagates. */
        return (acc > 0.0 || acc != acc) ? acc : 0.0;
    case 3: /* CC: min(values[v], min(values[u])) */
        acc = old;
        for (j = 0; j < d; j++)
            acc = take_min(acc, values[in_cols[s + j]]);
        return acc;
    case 4: /* MC: max(values[v], max(values[u])) */
        acc = old;
        for (j = 0; j < d; j++)
            acc = take_max(acc, values[in_cols[s + j]]);
        return acc;
    default: /* PR: base + d * sum(values[u] / outdeg[u]) */
        acc = 0.0;
        for (j = 0; j < d; j++) {
            int64_t u = in_cols[s + j];
            acc += values[u] / (double)out_deg[u];
        }
        return pr_base + damping * acc;
    }
}

/* ---- persistent thread pool --------------------------------------
 * Workers live for the process; saga_set_threads spawns them lazily
 * and only ever grows the pool.  One gather job is in flight at a
 * time (calls arrive serialized from Python), dispatched by bumping a
 * generation counter under the mutex -- which also publishes the
 * values written back between levels to every worker. */

#define SAGA_MAX_THREADS 64
#define SAGA_MT_GRAIN 64 /* min positions per gather slice */

static struct {
    const int64_t *order; /* positions sorted by dependency level */
    int64_t base;         /* current level's slice of order[] */
    int64_t count;
    int nslices;
    const int64_t *frontier;
    const int64_t *in_starts, *in_lens, *in_cols;
    const double *in_wts;
    const int64_t *out_deg;
    const double *values;
    double *nv;
    int32_t op;
    int64_t pinned;
    double pr_base, damping;
} g_job;

static pthread_mutex_t g_mu = PTHREAD_MUTEX_INITIALIZER;
static pthread_cond_t g_go = PTHREAD_COND_INITIALIZER;
static pthread_cond_t g_done = PTHREAD_COND_INITIALIZER;
static pthread_t g_workers[SAGA_MAX_THREADS];
static int g_spawned = 0;     /* workers running slices 1..g_spawned */
static int64_t g_threads = 1; /* requested gather concurrency */
static uint64_t g_gen = 0;
static int g_pending = 0;

static void inc_run_slice(int idx)
{
    int64_t len = g_job.count;
    int64_t lo = g_job.base + len * idx / g_job.nslices;
    int64_t hi = g_job.base + len * (idx + 1) / g_job.nslices;
    int64_t i;
    for (i = lo; i < hi; i++) {
        int64_t p = g_job.order[i];
        g_job.nv[p] = inc_recalc(
            g_job.frontier[p], g_job.values, g_job.in_starts,
            g_job.in_lens, g_job.in_cols, g_job.in_wts, g_job.out_deg,
            g_job.op, g_job.pinned, g_job.pr_base, g_job.damping);
    }
}

static void *inc_worker(void *arg)
{
    int idx = (int)(intptr_t)arg;
    uint64_t seen_gen = 0;
    pthread_mutex_lock(&g_mu);
    for (;;) {
        while (g_gen == seen_gen)
            pthread_cond_wait(&g_go, &g_mu);
        seen_gen = g_gen;
        pthread_mutex_unlock(&g_mu);
        if (idx < g_job.nslices)
            inc_run_slice(idx);
        pthread_mutex_lock(&g_mu);
        if (--g_pending == 0)
            pthread_cond_signal(&g_done);
    }
    return NULL;
}

/* fork() only carries the calling thread into the child: the pool's
 * workers are gone there, so a threaded gather would wait on g_done
 * forever (multiprocessing sweep workers fork with the pool live).
 * Reset the child to the serial path; it can saga_set_threads again. */
static void saga_pool_atfork_child(void)
{
    g_spawned = 0;
    g_threads = 1;
    g_gen = 0;
    g_pending = 0;
    pthread_mutex_init(&g_mu, NULL);
    pthread_cond_init(&g_go, NULL);
    pthread_cond_init(&g_done, NULL);
}

static int g_atfork = 0;

void saga_set_threads(int64_t n)
{
    if (n < 1)
        n = 1;
    if (n > SAGA_MAX_THREADS)
        n = SAGA_MAX_THREADS;
    if (!g_atfork) {
        if (pthread_atfork(NULL, NULL, saga_pool_atfork_child) != 0)
            return; /* can't make forking safe: stay serial */
        g_atfork = 1;
    }
    while (g_spawned < n - 1) {
        if (pthread_create(&g_workers[g_spawned], NULL, inc_worker,
                           (void *)(intptr_t)(g_spawned + 1)) != 0)
            break; /* cap at what the system could spawn */
        g_spawned++;
    }
    if (n > g_spawned + 1)
        n = g_spawned + 1;
    g_threads = n;
}

int64_t saga_get_threads(void)
{
    return g_threads;
}

static void inc_gather_level(int64_t base, int64_t count)
{
    int nslices = (int)(count / SAGA_MT_GRAIN);
    if (nslices > (int)g_threads)
        nslices = (int)g_threads;
    if (nslices < 2) {
        g_job.base = base;
        g_job.count = count;
        g_job.nslices = 1;
        inc_run_slice(0);
        return;
    }
    pthread_mutex_lock(&g_mu);
    g_job.base = base;
    g_job.count = count;
    g_job.nslices = nslices;
    g_pending = g_spawned;
    g_gen++;
    pthread_cond_broadcast(&g_go);
    pthread_mutex_unlock(&g_mu);
    inc_run_slice(0);
    pthread_mutex_lock(&g_mu);
    while (g_pending > 0)
        pthread_cond_wait(&g_done, &g_mu);
    pthread_mutex_unlock(&g_mu);
}

/* ---- round-local scratch (calls are serialized) ------------------ */

static int64_t *g_posmap = NULL; /* vertex -> frontier position, -1 */
static int64_t g_posmap_cap = 0;
static int64_t *g_scratch = NULL; /* lvl | order | cnt, cap each */
static double *g_fscratch = NULL; /* nv | oldv, cap each */
static int64_t g_scratch_cap = 0;

static int inc_ensure_scratch(int64_t k)
{
    if (g_scratch_cap < k) {
        int64_t cap = g_scratch_cap ? g_scratch_cap : 1024;
        int64_t *si;
        double *sf;
        while (cap < k)
            cap *= 2;
        si = (int64_t *)malloc((size_t)(3 * cap + 1) * sizeof(int64_t));
        sf = (double *)malloc((size_t)(2 * cap) * sizeof(double));
        if (!si || !sf) {
            free(si);
            free(sf);
            return 0;
        }
        free(g_scratch);
        free(g_fscratch);
        g_scratch = si;
        g_fscratch = sf;
        g_scratch_cap = cap;
    }
    return 1;
}

static int inc_posmap_reserve(int64_t need)
{
    if (g_posmap_cap < need) {
        int64_t cap = g_posmap_cap ? g_posmap_cap : 4096;
        int64_t *grown;
        while (cap < need)
            cap *= 2;
        grown = (int64_t *)realloc(g_posmap, (size_t)cap * sizeof(int64_t));
        if (!grown)
            return 0;
        memset(grown + g_posmap_cap, 0xFF,
               (size_t)(cap - g_posmap_cap) * sizeof(int64_t));
        g_posmap = grown;
        g_posmap_cap = cap;
    }
    return 1;
}

/* Threaded INC round.  Positions are partitioned into dependency
 * levels: a flow dependency (position p reads a value that an earlier
 * position q writes) forces lvl[p] > lvl[q]; an anti-dependency
 * (p reads a value a LATER position writes) floors that writer at
 * lvl[p].  Within a level no position reads another's write, so the
 * recalculation is a pure gather against the values array as of the
 * previous level -- parallel slices compute nv[], then write-back
 * runs serially.  Because the frontier is unique, values[v] at any
 * position's serial turn equals its round-start value, so old/new
 * pairs -- and hence the trigger scan, run in original sequential
 * order afterwards -- match the serial loop bit for bit.  Returns 0
 * on allocation failure (caller falls back to the serial loop). */
static int saga_inc_round_mt(
    int64_t k,
    const int64_t *frontier,
    const int64_t *in_starts,
    const int64_t *in_lens,
    const int64_t *in_cols,
    const double *in_wts,
    const int64_t *out_starts,
    const int64_t *out_lens,
    const int64_t *out_cols,
    const int64_t *out_deg,
    double *values,
    int32_t op,
    double epsilon,
    int64_t pinned,
    double pr_base,
    double damping,
    uint8_t *seen,
    int64_t *triggered,
    int64_t *next_out,
    int64_t *counts_out)
{
    int64_t p, j, i, nt = 0, cas = 0, nn = 0, maxlvl = 0, maxv = -1;
    int64_t *lvl, *order, *cnt;
    double *nv, *oldv;
    if (!inc_ensure_scratch(k))
        return 0;
    lvl = g_scratch;
    order = g_scratch + g_scratch_cap;
    cnt = g_scratch + 2 * g_scratch_cap;
    nv = g_fscratch;
    oldv = g_fscratch + g_scratch_cap;
    for (p = 0; p < k; p++)
        if (frontier[p] > maxv)
            maxv = frontier[p];
    if (!inc_posmap_reserve(maxv + 1))
        return 0;
    for (p = 0; p < k; p++)
        g_posmap[frontier[p]] = p;
    for (p = 0; p < k; p++)
        lvl[p] = 0;
    for (p = 0; p < k; p++) {
        int64_t v = frontier[p];
        int64_t L = lvl[p]; /* anti-dependency floor so far */
        if (v != pinned) {
            int64_t s = in_starts[v];
            int64_t d = in_lens[v];
            for (j = 0; j < d; j++) {
                int64_t u = in_cols[s + j];
                int64_t q = u < g_posmap_cap ? g_posmap[u] : -1;
                if (q >= 0 && q < p && lvl[q] + 1 > L)
                    L = lvl[q] + 1;
            }
            for (j = 0; j < d; j++) {
                int64_t u = in_cols[s + j];
                int64_t q = u < g_posmap_cap ? g_posmap[u] : -1;
                if (q > p && lvl[q] < L)
                    lvl[q] = L;
            }
        }
        lvl[p] = L;
        if (L > maxlvl)
            maxlvl = L;
    }
    /* Counting sort: order[] holds positions grouped by ascending
     * level, ascending position within a level. */
    for (i = 0; i <= maxlvl; i++)
        cnt[i] = 0;
    for (p = 0; p < k; p++)
        cnt[lvl[p]]++;
    {
        int64_t off = 0;
        for (i = 0; i <= maxlvl; i++) {
            int64_t c = cnt[i];
            cnt[i] = off;
            off += c;
        }
    }
    for (p = 0; p < k; p++)
        order[cnt[lvl[p]]++] = p; /* cnt[i] becomes level i's end */
    g_job.order = order;
    g_job.frontier = frontier;
    g_job.in_starts = in_starts;
    g_job.in_lens = in_lens;
    g_job.in_cols = in_cols;
    g_job.in_wts = in_wts;
    g_job.out_deg = out_deg;
    g_job.values = values;
    g_job.nv = nv;
    g_job.op = op;
    g_job.pinned = pinned;
    g_job.pr_base = pr_base;
    g_job.damping = damping;
    {
        int64_t base = 0;
        for (i = 0; i <= maxlvl; i++) {
            int64_t end = cnt[i];
            inc_gather_level(base, end - base);
            for (j = base; j < end; j++) {
                int64_t pp = order[j];
                int64_t v = frontier[pp];
                oldv[pp] = values[v];
                values[v] = nv[pp];
            }
            base = end;
        }
    }
    for (p = 0; p < k; p++) {
        double old = oldv[p];
        double nvp = nv[p];
        if (fabs(old - nvp) > epsilon) {
            int64_t v = frontier[p];
            int64_t s = out_starts[v];
            int64_t d = out_lens[v];
            triggered[nt++] = v;
            for (j = 0; j < d; j++) {
                int64_t t = out_cols[s + j];
                cas++;
                if (!seen[t]) {
                    seen[t] = 1;
                    next_out[nn++] = t;
                }
            }
        }
    }
    for (p = 0; p < nn; p++)
        seen[next_out[p]] = 0;
    for (p = 0; p < k; p++)
        g_posmap[frontier[p]] = -1;
    qsort(next_out, (size_t)nn, sizeof(int64_t), cmp_i64);
    counts_out[0] = nt;
    counts_out[1] = cas;
    counts_out[2] = nn;
    return 1;
}

/* One whole INC round (Algorithm 1), fused: sequential Gauss-Seidel
 * over the ascending unique frontier -- each vertex recalculates from
 * the in-CSR reading values[] as they stand (earlier positions already
 * updated, later ones not), writes its new value, and on a change
 * greater than epsilon scans its out-row (cas_ops), deduplicating the
 * next frontier through the caller's zeroed seen[] bytes.  This IS the
 * legacy run_incremental loop, so bit-identity holds by construction;
 * the numpy engine needs dependency-level waves to reproduce it.
 *
 * op selects the Table-I vertex function.  pinned (-1 = none) keeps
 * the source at its current value (old == new, never triggers).
 * Outputs: triggered[] prefix (counts_out[0]), next_out[] prefix
 * sorted ascending (counts_out[2]), counts_out[1] = cas_ops.  seen[]
 * is reset to zero before returning.
 */
void saga_inc_round(
    int64_t k,
    const int64_t *frontier,
    const int64_t *in_starts,
    const int64_t *in_lens,
    const int64_t *in_cols,
    const double *in_wts,
    const int64_t *out_starts,
    const int64_t *out_lens,
    const int64_t *out_cols,
    const int64_t *out_deg,
    double *values,
    int32_t op,
    double epsilon,
    int64_t pinned,
    double pr_base,
    double damping,
    uint8_t *seen,
    int64_t *triggered,
    int64_t *next_out,
    int64_t *counts_out)
{
    int64_t p, j, nt = 0, cas = 0, nn = 0;
    if (g_threads > 1 && k >= 2 * SAGA_MT_GRAIN &&
        saga_inc_round_mt(k, frontier, in_starts, in_lens, in_cols,
                          in_wts, out_starts, out_lens, out_cols,
                          out_deg, values, op, epsilon, pinned, pr_base,
                          damping, seen, triggered, next_out, counts_out))
        return;
    for (p = 0; p < k; p++) {
        int64_t v = frontier[p];
        double old = values[v];
        double nv = inc_recalc(v, values, in_starts, in_lens, in_cols,
                               in_wts, out_deg, op, pinned, pr_base,
                               damping);
        values[v] = nv;
        /* inf - inf is NaN; NaN > eps is false -- not a change,
         * exactly as the scalar engine treats it. */
        if (fabs(old - nv) > epsilon) {
            int64_t s = out_starts[v];
            int64_t d = out_lens[v];
            triggered[nt++] = v;
            for (j = 0; j < d; j++) {
                int64_t t = out_cols[s + j];
                cas++;
                if (!seen[t]) {
                    seen[t] = 1;
                    next_out[nn++] = t;
                }
            }
        }
    }
    for (p = 0; p < nn; p++)
        seen[next_out[p]] = 0;
    /* The numpy engine's np.unique: seen[] already deduplicated, so
     * sorting ascending completes the contract. */
    qsort(next_out, (size_t)nn, sizeof(int64_t), cmp_i64);
    counts_out[0] = nt;
    counts_out[1] = cas;
    counts_out[2] = nn;
}

/* One FS frontier-relaxation round (BFS / SSWP), fused: the legacy
 * loop verbatim -- each frontier vertex reads its base value at its
 * turn, relaxes its out-edges sequentially, conditionally updates, and
 * appends each target to the next frontier on its first improvement
 * (improved[] must arrive zeroed; reset before returning).  Returns
 * the next-frontier length; next_out keeps discovery order (the
 * legacy append order), NOT sorted. */
int64_t saga_relax_round(
    int64_t k,
    const int64_t *frontier,
    const int64_t *starts,
    const int64_t *lens,
    const int64_t *cols,
    const double *wts,
    double *values,
    int32_t op,
    int32_t maximize,
    uint8_t *improved,
    int64_t *next_out)
{
    int64_t p, j, nn = 0;
    for (p = 0; p < k; p++) {
        int64_t v = frontier[p];
        double base = values[v];
        int64_t s = starts[v];
        int64_t d = lens[v];
        for (j = 0; j < d; j++) {
            int64_t t = cols[s + j];
            double w = wts[s + j];
            double cand = op == 0 ? base + 1.0 : ((base < w) ? base : w);
            double cur = values[t];
            if (maximize ? (cand > cur) : (cand < cur)) {
                values[t] = cand;
                if (!improved[t]) {
                    improved[t] = 1;
                    next_out[nn++] = t;
                }
            }
        }
    }
    for (p = 0; p < nn; p++)
        improved[next_out[p]] = 0;
    return nn;
}

/* One delta-stepping light or heavy pass (SSSP FS), fused: sequential
 * conditional relaxation over the frontier's out-edges filtered by
 * weight (light: w <= delta, heavy: w > delta).  Every successful
 * compare-and-update emits one (target, candidate) event in sequential
 * order -- exactly the rows kernels.relaxation_events reconstructs.
 * Returns the event count. */
int64_t saga_delta_pass(
    int64_t k,
    const int64_t *frontier,
    const int64_t *starts,
    const int64_t *lens,
    const int64_t *cols,
    const double *wts,
    double *values,
    double delta,
    int32_t heavy,
    int64_t *ev_tgt,
    double *ev_cand)
{
    int64_t p, j, ne = 0;
    for (p = 0; p < k; p++) {
        int64_t v = frontier[p];
        double base = values[v];
        int64_t s = starts[v];
        int64_t d = lens[v];
        for (j = 0; j < d; j++) {
            double w = wts[s + j];
            int64_t t;
            double cand;
            if (heavy ? (w <= delta) : (w > delta))
                continue;
            t = cols[s + j];
            cand = base + w;
            if (cand < values[t]) {
                values[t] = cand;
                ev_tgt[ne] = t;
                ev_cand[ne] = cand;
                ne++;
            }
        }
    }
    return ne;
}

/* ---- compute-run pricing -----------------------------------------
 * saga_price_run prices every iteration of one ComputeRun for several
 * traversal-cost signatures in one pass, bit-identical to the numpy
 * reference in repro.compute.pricing: each per-task cost is the same
 * float64 expression evaluated in the same order, the per-iteration
 * sum is np.sum's pairwise grouping, and the Graham bound is
 * repro.sim.scheduler.graham_makespan. */

/* GCC's -O3 vectorizes and unswitches the per-task cost loops (about
 * 15% off this kernel); it changes no float bits, since the build
 * keeps IEEE semantics and forbids FMA contraction. */
#pragma GCC push_options
#pragma GCC optimize("O3")

/* numpy's pairwise summation of a contiguous float64 array: a plain
 * loop below 8 elements, 8 accumulators up to 128, and above that a
 * split at n/2 rounded down to a multiple of 8. */
static double pairwise(const double *a, int64_t n)
{
    int64_t i, j;
    if (n < 8) {
        double res = 0.0;
        for (i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8], res;
        for (j = 0; j < 8; j++)
            r[j] = a[j];
        for (i = 8; i < n - (n % 8); i += 8)
            for (j = 0; j < 8; j++)
                r[j] += a[i + j];
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    } else {
        int64_t n2 = n / 2;
        n2 -= n2 % 8;
        return pairwise(a, n2) + pairwise(a + n2, n - n2);
    }
}

/* np.sum(a): the reduction starts from the identity 0.0. */
double saga_pairwise_sum(int64_t n, const double *a)
{
    return 0.0 + pairwise(a, n);
}

/* Traversal shapes (a structure's vector_traversal_cost). */
#define SHAPE_CONTIGUOUS 0
#define SHAPE_STINGER 1
#define SHAPE_DAH 2

/* Cost-model constants, in the order ComputeKernels.price_run packs
 * them (PRICE_COST_FIELDS). */
enum {
    CM_PROBE_ELEMENT,
    CM_PROBE_BLOCK_ELEMENT,
    CM_POINTER_CHASE,
    CM_HASH_COMPUTE,
    CM_HASH_PROBE,
    CM_HASH_ITERATE_SLOT,
    CM_DEGREE_QUERY,
    CM_VERTEX_TASK_BASE,
    CM_NEIGHBOR_VISIT,
    CM_PROPERTY_WRITE,
    CM_CAS,
    CM_QUEUE_PUSH,
    CM_TASK_DISPATCH
};

/* One vertex's traversal cost from its degree x (a non-negative
 * integer held exactly in a double).  Stinger's block count is the
 * integer ceil of x / block, which is what np.ceil(x / block) gives. */
static inline __attribute__((always_inline)) double traversal_cost(
    int32_t shape, double x, const double *cm, double dah_threshold,
    double block)
{
    double q, blocks;
    switch (shape) {
    case SHAPE_STINGER:
        q = x / block;
        blocks = (double)(int64_t)q;
        blocks += (blocks < q) ? 1.0 : 0.0;
        return (cm[CM_PROBE_ELEMENT] + cm[CM_POINTER_CHASE] * blocks)
               + cm[CM_PROBE_BLOCK_ELEMENT] * x;
    case SHAPE_DAH:
        return ((cm[CM_DEGREE_QUERY] + cm[CM_HASH_COMPUTE]) + cm[CM_HASH_PROBE])
               + (x > dah_threshold ? cm[CM_HASH_ITERATE_SLOT]
                                    : cm[CM_PROBE_ELEMENT]) * x;
    default:
        return cm[CM_PROBE_ELEMENT] * (1.0 + x);
    }
}

/* np.max of a non-empty array whose NaNs, if any, already make the
 * caller's pairwise sum (and so every result) NaN: four independent
 * maxima keep the loop off a single compare-latency chain. */
static double longest_task(const double *a, int64_t n)
{
    double m[4] = {-INFINITY, -INFINITY, -INFINITY, -INFINITY};
    int64_t i, k;
    for (i = 0; i + 4 <= n; i += 4)
        for (k = 0; k < 4; k++)
            m[k] = a[i + k] > m[k] ? a[i + k] : m[k];
    for (; i < n; i++)
        m[0] = a[i] > m[0] ? a[i] : m[0];
    for (k = 1; k < 4; k++)
        m[0] = m[k] > m[0] ? m[k] : m[0];
    return m[0];
}

/* One signature's task costs for one iteration into cbuf: the npull
 * pull tasks, then the push tasks.  Always inlined with a constant
 * shape, so each shape gets its own branch-free loop. */
static inline __attribute__((always_inline)) void task_costs(
    int32_t shape, const double *dbuf, int64_t npull, int64_t n,
    const double *cm, double dq, int32_t neighbor_degree_query,
    double dah_threshold, double block, double *cbuf)
{
    int64_t j;
    for (j = 0; j < npull; j++) {
        double x = dbuf[j];
        double c = ((cm[CM_VERTEX_TASK_BASE]
                     + traversal_cost(shape, x, cm, dah_threshold, block))
                    + x * cm[CM_NEIGHBOR_VISIT])
                   + cm[CM_PROPERTY_WRITE];
        if (neighbor_degree_query)
            c = c + x * dq;
        cbuf[j] = c;
    }
    for (j = npull; j < n; j++) {
        double x = dbuf[j];
        cbuf[j] = traversal_cost(shape, x, cm, dah_threshold, block)
                  + x * cm[CM_CAS];
    }
}

/* Price n_iter iterations for nsig (shape, degree-query cost)
 * signatures.  table holds one row per iteration: pull-vertex array
 * address, pull count, push-vertex array address, push count, queue
 * pushes.  Per non-empty iteration the pull tasks come first, then
 * the push tasks, exactly as the reference concatenates them; degrees
 * are gathered once into dbuf and each signature's task costs fill
 * cbuf (both sized to the longest iteration).  latency/work receive
 * the per-signature sums over iterations.  Returns 0, or -(i + 1)
 * when iteration i names a vertex outside the degree arrays. */
int64_t saga_price_run(
    int64_t n_iter,
    const int64_t *table,
    const int64_t *deg_in,
    int64_t n_in,
    const int64_t *deg_out,
    int64_t n_out,
    int64_t nsig,
    const int32_t *shapes,
    const double *dq,
    int32_t neighbor_degree_query,
    const double *cm,
    int64_t dah_threshold,
    int64_t block,
    int64_t threads,
    double scale,
    int64_t dispatch_chunk,
    double *dbuf,
    double *cbuf,
    double *latency,
    double *work)
{
    double t = (double)threads;
    double thr = (double)dah_threshold, blk = (double)block;
    int64_t i, j, s;
    for (s = 0; s < nsig; s++)
        latency[s] = work[s] = 0.0;
    for (i = 0; i < n_iter; i++) {
        const int64_t *row = table + 5 * i;
        const int64_t *pull = (const int64_t *)(intptr_t)row[0];
        const int64_t *push = (const int64_t *)(intptr_t)row[2];
        int64_t npull = row[1], n = row[1] + row[3];
        double extra;
        if (n == 0)
            continue;
        for (j = 0; j < npull; j++) {
            int64_t v = pull[j];
            if ((uint64_t)v >= (uint64_t)n_in)
                return -(i + 1);
            dbuf[j] = (double)deg_in[v];
        }
        for (j = npull; j < n; j++) {
            int64_t v = push[j - npull];
            if ((uint64_t)v >= (uint64_t)n_out)
                return -(i + 1);
            dbuf[j] = (double)deg_out[v];
        }
        extra = (double)row[4] * cm[CM_QUEUE_PUSH];
        for (s = 0; s < nsig; s++) {
            double longest, total;
            switch (shapes[s]) {
            case SHAPE_STINGER:
                task_costs(SHAPE_STINGER, dbuf, npull, n, cm, dq[s],
                           neighbor_degree_query, thr, blk, cbuf);
                break;
            case SHAPE_DAH:
                task_costs(SHAPE_DAH, dbuf, npull, n, cm, dq[s],
                           neighbor_degree_query, thr, blk, cbuf);
                break;
            default:
                task_costs(SHAPE_CONTIGUOUS, dbuf, npull, n, cm, dq[s],
                           neighbor_degree_query, thr, blk, cbuf);
            }
            longest = longest_task(cbuf, n);
            total = saga_pairwise_sum(n, cbuf)
                    + cm[CM_TASK_DISPATCH] * (double)n / (double)dispatch_chunk;
            latency[s] += (total / t + (1.0 - 1.0 / t) * longest) * scale + extra / t;
            work[s] += total + extra;
        }
    }
    return 0;
}

#pragma GCC pop_options
"""


def _sig(fn, restype, argtypes) -> None:
    fn.restype = restype
    fn.argtypes = argtypes


class ComputeKernels:
    """ctypes wrappers over the compiled kernels (numpy in/out)."""

    def __init__(self, lib: ctypes.CDLL) -> None:
        self._lib = lib
        _sig(lib.saga_expand, None, [_I64] + [_PTR] * 8)
        _sig(lib.saga_segment_reduce, None, [_I64, _PTR, _PTR, _I32, _F64, _PTR])
        _sig(lib.saga_segment_sum, None, [_I64, _PTR, _PTR, _PTR])
        _sig(lib.saga_scatter_extreme, None, [_I64, _PTR, _PTR, _I32, _PTR])
        _sig(
            lib.saga_inc_round,
            None,
            [_I64] + [_PTR] * 10 + [_I32, _F64, _I64, _F64, _F64] + [_PTR] * 4,
        )
        _sig(
            lib.saga_relax_round,
            _I64,
            [_I64] + [_PTR] * 6 + [_I32, _I32] + [_PTR] * 2,
        )
        _sig(
            lib.saga_delta_pass,
            _I64,
            [_I64] + [_PTR] * 6 + [_F64, _I32] + [_PTR] * 2,
        )
        _sig(lib.saga_pairwise_sum, _F64, [_I64, _PTR])
        _sig(
            lib.saga_price_run,
            _I64,
            [_I64, _PTR, _PTR, _I64, _PTR, _I64, _I64, _PTR, _PTR, _I32, _PTR]
            + [_I64, _I64, _I64, _F64, _I64]
            + [_PTR] * 4,
        )
        _sig(lib.saga_set_threads, None, [_I64])
        _sig(lib.saga_get_threads, _I64, [])

    def set_threads(self, n: int) -> None:
        """Size the INC-round gather pool (clamped to what spawns)."""
        self._lib.saga_set_threads(int(n))

    def threads(self) -> int:
        return int(self._lib.saga_get_threads())

    # ``arr.ctypes.data`` of a size-0 array is a valid (never
    # dereferenced) pointer, so empty frontiers need no special casing.
    @staticmethod
    def _p(arr: np.ndarray):
        return arr.ctypes.data

    def expand(
        self, csr, frontier: np.ndarray, total: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """C twin of :func:`repro.compute.kernels.expand_frontier`."""
        seg = np.empty(total, dtype=np.int64)
        nbr = np.empty(total, dtype=np.int64)
        wt = np.empty(total, dtype=np.float64)
        self._lib.saga_expand(
            frontier.size,
            self._p(frontier),
            self._p(csr.indptr),
            self._p(csr.degrees),
            self._p(csr.indices),
            self._p(csr.weights),
            self._p(seg),
            self._p(nbr),
            self._p(wt),
        )
        return seg, nbr, wt

    def segment_reduce(
        self, terms: np.ndarray, counts: np.ndarray, identity: float, maximize: bool
    ) -> np.ndarray:
        out = np.empty(counts.size, dtype=np.float64)
        self._lib.saga_segment_reduce(
            counts.size,
            self._p(counts),
            self._p(terms),
            1 if maximize else 0,
            identity,
            self._p(out),
        )
        return out

    def segment_sum(
        self, terms: np.ndarray, seg: np.ndarray, num_segments: int
    ) -> np.ndarray:
        out = np.zeros(num_segments, dtype=np.float64)
        self._lib.saga_segment_sum(
            terms.size, self._p(seg), self._p(terms), self._p(out)
        )
        return out

    def scatter_extreme(
        self, out: np.ndarray, idx: np.ndarray, terms: np.ndarray, maximize: bool
    ) -> None:
        """In-place ``np.minimum.at`` / ``np.maximum.at``."""
        self._lib.saga_scatter_extreme(
            idx.size, self._p(idx), self._p(terms), 1 if maximize else 0, self._p(out)
        )

    def inc_round(
        self,
        cv,
        frontier: np.ndarray,
        values: np.ndarray,
        op: int,
        epsilon: float,
        pinned: int,
        pr_base: float,
        damping: float,
        seen: np.ndarray,
    ) -> Tuple[np.ndarray, int, np.ndarray]:
        """One fused INC round; returns (triggered, cas_ops, next)."""
        k = frontier.size
        out_csr = cv.out_csr
        in_csr = cv.in_csr
        cap = int(out_csr.degrees[frontier].sum()) if k else 0
        triggered = np.empty(k, dtype=np.int64)
        next_out = np.empty(cap, dtype=np.int64)
        counts = np.zeros(3, dtype=np.int64)
        self._lib.saga_inc_round(
            k,
            self._p(frontier),
            self._p(in_csr.indptr),
            self._p(in_csr.degrees),
            self._p(in_csr.indices),
            self._p(in_csr.weights),
            self._p(out_csr.indptr),
            self._p(out_csr.degrees),
            self._p(out_csr.indices),
            self._p(out_csr.degrees),
            self._p(values),
            op,
            epsilon,
            pinned,
            pr_base,
            damping,
            self._p(seen),
            self._p(triggered),
            self._p(next_out),
            self._p(counts),
        )
        return triggered[: counts[0]], int(counts[1]), next_out[: counts[2]]

    def relax_round(
        self,
        csr,
        frontier: np.ndarray,
        values: np.ndarray,
        op: int,
        maximize: bool,
        improved: np.ndarray,
    ) -> np.ndarray:
        """One fused FS relaxation round; returns the next frontier."""
        cap = int(csr.degrees[frontier].sum()) if frontier.size else 0
        next_out = np.empty(cap, dtype=np.int64)
        nn = self._lib.saga_relax_round(
            frontier.size,
            self._p(frontier),
            self._p(csr.indptr),
            self._p(csr.degrees),
            self._p(csr.indices),
            self._p(csr.weights),
            self._p(values),
            op,
            1 if maximize else 0,
            self._p(improved),
            self._p(next_out),
        )
        return next_out[:nn]

    def delta_pass(
        self,
        csr,
        frontier: np.ndarray,
        values: np.ndarray,
        delta: float,
        heavy: bool,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One fused delta-stepping pass; returns (ev_tgt, ev_cand)."""
        cap = int(csr.degrees[frontier].sum()) if frontier.size else 0
        ev_tgt = np.empty(cap, dtype=np.int64)
        ev_cand = np.empty(cap, dtype=np.float64)
        ne = self._lib.saga_delta_pass(
            frontier.size,
            self._p(frontier),
            self._p(csr.indptr),
            self._p(csr.degrees),
            self._p(csr.indices),
            self._p(csr.weights),
            self._p(values),
            delta,
            1 if heavy else 0,
            self._p(ev_tgt),
            self._p(ev_cand),
        )
        return ev_tgt[:ne], ev_cand[:ne]

    def pairwise_sum(self, a: np.ndarray) -> float:
        """The kernel's ``np.sum`` twin over a contiguous float64 array."""
        return float(self._lib.saga_pairwise_sum(a.size, self._p(a)))

    def price_run(
        self,
        table: np.ndarray,
        deg_in: np.ndarray,
        deg_out: np.ndarray,
        shapes: np.ndarray,
        dq: np.ndarray,
        neighbor_degree_query: bool,
        cost_fields: np.ndarray,
        dah_threshold: int,
        block: int,
        threads: int,
        scale: float,
        dispatch_chunk: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Price a run's iteration ``table`` for every signature.

        ``table`` is ``(iterations, 5)`` int64: pull-array address,
        pull count, push-array address, push count, queue pushes.  The
        addressed arrays must be contiguous int64 and stay alive for
        the call.  Returns per-signature (latency, work) cycle sums
        over the iterations.
        """
        longest = int((table[:, 1] + table[:, 3]).max()) if len(table) else 0
        dbuf = np.empty(longest, dtype=np.float64)
        cbuf = np.empty(longest, dtype=np.float64)
        latency = np.empty(shapes.size, dtype=np.float64)
        work = np.empty(shapes.size, dtype=np.float64)
        status = self._lib.saga_price_run(
            len(table),
            self._p(table),
            self._p(deg_in),
            deg_in.size,
            self._p(deg_out),
            deg_out.size,
            shapes.size,
            self._p(shapes),
            self._p(dq),
            1 if neighbor_degree_query else 0,
            self._p(cost_fields),
            dah_threshold,
            block,
            threads,
            scale,
            dispatch_chunk,
            self._p(dbuf),
            self._p(cbuf),
            self._p(latency),
            self._p(work),
        )
        if status < 0:
            raise IndexError(
                f"iteration {-status - 1} names a vertex outside the degree arrays"
            )
        return latency, work


_kernels: Optional[ComputeKernels] = None
_disabled: FrozenSet[str] = frozenset()
_tried = False


def _disabled_kernels() -> FrozenSet[str]:
    raw = os.environ.get(DISABLE_ENV, "").strip()
    if not raw:
        return frozenset()
    if raw in {"1", "all", "true"}:
        return KERNEL_NAMES
    names = frozenset(part.strip() for part in raw.split(",") if part.strip())
    unknown = names - KERNEL_NAMES
    if unknown:
        raise ValueError(
            f"{DISABLE_ENV} names unknown kernels {sorted(unknown)}; "
            f"known: {sorted(KERNEL_NAMES)}"
        )
    return names


def _probe() -> Optional[ComputeKernels]:
    global _kernels, _disabled, _tried
    if _tried:
        return _kernels
    _tried = True
    _disabled = _disabled_kernels()
    if _disabled == KERNEL_NAMES:
        return None
    try:
        _kernels = ComputeKernels(
            load_library(_SOURCE, "saga_compute", extra_flags=("-pthread",))
        )
        _kernels.set_threads(_env_threads())
    except Exception as exc:
        if os.environ.get(REQUIRE_ENV):
            raise RuntimeError(
                f"{REQUIRE_ENV} is set but the compute kernels failed to "
                f"build: {exc}"
            ) from exc
        warnings.warn(
            f"compiled compute kernels unavailable ({type(exc).__name__}: "
            f"{exc}); pricing, INC and FS fall back to numpy and run "
            f"several times slower",
            RuntimeWarning,
            stacklevel=2,
        )
        _kernels = None
    return _kernels


def get(name: str) -> Optional[ComputeKernels]:
    """The compiled kernels if ``name`` is available, else ``None``.

    ``name`` must be one of :data:`KERNEL_NAMES`; call sites gate each
    fused path on its own name so individual kernels can be disabled
    for differential debugging.
    """
    kernels = _probe()
    if kernels is None or name in _disabled:
        return None
    return kernels


def _env_threads() -> int:
    """Thread count requested through :data:`THREADS_ENV` (min 1)."""
    raw = os.environ.get(THREADS_ENV, "").strip()
    if not raw:
        return 1
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(
            f"{THREADS_ENV} must be an integer, got {raw!r}"
        ) from None
    return max(1, n)


def compute_threads() -> int:
    """Threads the fused INC round runs on (1 when not compiled)."""
    kernels = _probe()
    return kernels.threads() if kernels is not None else 1


def set_compute_threads(n: int) -> None:
    """Resize the gather pool at runtime (no-op without the library)."""
    kernels = _probe()
    if kernels is not None:
        kernels.set_threads(n)


def loaded() -> bool:
    """True when the compiled library is built and loadable.

    The bench scripts embed this in ``BENCH_*.json`` so a silent numpy
    fallback cannot masquerade as a perf change.
    """
    return _probe() is not None


def reset() -> None:
    """Forget the cached probe result and env parse (test hook)."""
    global _kernels, _disabled, _tried
    _kernels = None
    _disabled = frozenset()
    _tried = False
