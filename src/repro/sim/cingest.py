"""Compiled C batch-ingest kernels for the update phase.

The update plane has two implementations per data structure: the
per-edge Python twins of the stores in :mod:`repro.graph.nativestore`
(the reference, the traced path and the fallback) and the kernels
compiled here -- the fast path.  Each structure family gets one C
kernel that runs an *entire* untraced batch -- duplicate scans, slot
writes, segment relocations, block chases, hash probes -- over the
stores' numpy-backed state, returning the same per-operation count
columns the twins report (scanned/hit/aux...), which the emitters then
price with vectorized arithmetic.  Results are bit-identical to the
twins.

The kernels mutate raw arrays, but simulated-memory accounting
(``AddressSpace`` regions, segment pools, table regions) stays in
Python: any operation that would allocate or free simulated memory
appends a compact *event* to an event log, and the store replays the
log after the C call in the exact order the allocations happened, so
the bump-allocated address space is laid out identically to the
per-edge path.  When a kernel runs out of backing storage (a growth
needs more pool than preallocated) it *stalls*: it returns mid-batch
with a resume cursor, Python grows the numpy pool, and the kernel is
re-entered at the stalled operation.

Environment gates (mirroring :mod:`repro.compute.ckernels`):

- ``SAGA_BENCH_NO_CINGEST=1`` (or ``all``) disables every structure;
  a comma list (``SAGA_BENCH_NO_CINGEST=DAH,Stinger``) disables only
  those structures, which then ingest every batch through the Python
  twins.
- ``SAGA_BENCH_REQUIRE_CINGEST=1`` turns a failed build into a hard
  error.  Without it a failed build emits one ``RuntimeWarning`` naming
  the error and every structure falls back to the twins.
"""

from __future__ import annotations

import ctypes
import os
import warnings
from typing import FrozenSet, Optional

import numpy as np

from repro.sim.cbuild import load_library

#: Disable env var: "1"/"all" for everything, or a comma list of
#: structure names (see :data:`STRUCTURE_NAMES`).
DISABLE_ENV = "SAGA_BENCH_NO_CINGEST"

#: When set, a failed build raises instead of falling back to the twins.
REQUIRE_ENV = "SAGA_BENCH_REQUIRE_CINGEST"

#: Structures with a compiled ingest kernel.
STRUCTURE_NAMES = frozenset({"AS", "AC", "BA", "Stinger", "DAH"})

#: Kernel return codes.
OK = 0
STALL = 1

_SOURCE = r"""
#include <stdint.h>

/* ------------------------------------------------------------------ *
 * Vector-family ingest (AS, AC, BA).
 *
 * Store state: one flat (neighbor, weight) pool per store plus
 * per-vertex (offset, length, capacity) arrays.  A vertex's vector is
 * pool[off .. off+len); growth bump-allocates a doubled span at the
 * pool cursor (state[0]) and copies -- mirroring the alloc-then-free
 * (AS/AC) or pool-acquire-then-release (BA) of the Python twins,
 * which is replayed from the event log: one (mirror, vertex, newcap)
 * triple per growth.
 *
 * Control block ctl[8]: resume edge index, resume half (0 = out op
 * next, 1 = mirror op next), output row cursor, positive count, event
 * count, stall store flag, stall pool need.  Returns 0 when the batch
 * is complete, 1 on a pool stall (re-enter after growing the numpy
 * pool of the store named by ctl[5]: 0 = out, 1 = mirror).
 * ------------------------------------------------------------------ */

#define VEC_MIN_CAPACITY 4

typedef struct {
    int64_t *off;
    int64_t *len;
    int64_t *cap;
    int64_t *nbr;
    double  *wgt;
    int64_t *state;     /* [0] = pool cursor */
    int64_t  pool_cap;
} VecStore;

/* One search-then-insert; returns 0 ok, -1 stall (need in *need). */
static int vec_insert_op(
    VecStore *s, int64_t u, int64_t v, double w, int64_t mirror,
    int64_t *scanned, uint8_t *hit, int64_t *aux, int64_t row,
    int64_t *events, int64_t *ec, int64_t *positive, int64_t *need)
{
    int64_t off = s->off[u];
    int64_t len = s->len[u];
    int64_t pos = -1;
    const int64_t *nbr = s->nbr + off;
    for (int64_t k = 0; k < len; k++) {
        if (nbr[k] == v) { pos = k; break; }
    }
    if (pos >= 0) {
        scanned[row] = pos + 1;
        hit[row] = 0;
        aux[row] = 0;
        return 0;
    }
    int64_t grew = 0;
    if (len == s->cap[u]) {
        int64_t newcap = s->cap[u] ? s->cap[u] * 2 : VEC_MIN_CAPACITY;
        if (s->state[0] + newcap > s->pool_cap) {
            *need = newcap;
            return -1;
        }
        int64_t noff = s->state[0];
        for (int64_t k = 0; k < len; k++) {
            s->nbr[noff + k] = s->nbr[off + k];
            s->wgt[noff + k] = s->wgt[off + k];
        }
        s->state[0] += newcap;
        s->off[u] = noff;
        s->cap[u] = newcap;
        off = noff;
        grew = len;
        events[3 * *ec] = mirror;
        events[3 * *ec + 1] = u;
        events[3 * *ec + 2] = newcap;
        (*ec)++;
    }
    s->nbr[off + len] = v;
    s->wgt[off + len] = w;
    s->len[u] = len + 1;
    scanned[row] = len;
    hit[row] = 1;
    aux[row] = grew;
    if (!mirror) (*positive)++;
    return 0;
}

static void vec_delete_op(
    VecStore *s, int64_t u, int64_t v, int64_t mirror, int64_t record_moved,
    int64_t *scanned, uint8_t *hit, int64_t *aux, int64_t row,
    int64_t *positive)
{
    int64_t off = s->off[u];
    int64_t len = s->len[u];
    int64_t pos = -1;
    const int64_t *nbr = s->nbr + off;
    for (int64_t k = 0; k < len; k++) {
        if (nbr[k] == v) { pos = k; break; }
    }
    if (pos < 0) {
        scanned[row] = len;
        hit[row] = 0;
        aux[row] = 0;
        return;
    }
    scanned[row] = pos + 1;
    int64_t moved = 0;
    if (pos != len - 1) {
        s->nbr[off + pos] = s->nbr[off + len - 1];
        s->wgt[off + pos] = s->wgt[off + len - 1];
        moved = 1;
    }
    s->len[u] = len - 1;
    hit[row] = 1;
    aux[row] = record_moved ? moved : 0;
    if (!mirror) (*positive)++;
}

int64_t saga_vec_ingest(
    int64_t n, const int64_t *src, const int64_t *dst, const double *wgt,
    int64_t directed, int64_t delete_mode, int64_t record_moved,
    int64_t *o_off, int64_t *o_len, int64_t *o_cap,
    int64_t *o_nbr, double *o_wgt, int64_t *o_state, int64_t o_pool_cap,
    int64_t *i_off, int64_t *i_len, int64_t *i_cap,
    int64_t *i_nbr, double *i_wgt, int64_t *i_state, int64_t i_pool_cap,
    int64_t *scanned, uint8_t *hit, int64_t *aux,
    int64_t *events, int64_t *ctl)
{
    VecStore out = {o_off, o_len, o_cap, o_nbr, o_wgt, o_state, o_pool_cap};
    VecStore in  = {i_off, i_len, i_cap, i_nbr, i_wgt, i_state, i_pool_cap};
    int64_t i = ctl[0];
    int64_t half = ctl[1];
    int64_t row = ctl[2];
    int64_t positive = ctl[3];
    int64_t ec = ctl[4];
    int64_t need = 0;
    for (; i < n; i++) {
        int64_t u = src[i];
        int64_t v = dst[i];
        double w = delete_mode ? 0.0 : wgt[i];
        if (half == 0) {
            if (delete_mode) {
                vec_delete_op(&out, u, v, 0, record_moved,
                              scanned, hit, aux, row, &positive);
            } else if (vec_insert_op(&out, u, v, w, 0,
                                     scanned, hit, aux, row,
                                     events, &ec, &positive, &need)) {
                ctl[0] = i; ctl[1] = 0; ctl[2] = row; ctl[3] = positive;
                ctl[4] = ec; ctl[5] = 0; ctl[6] = need;
                return 1;
            }
            row++;
            half = 1;
        }
        if (u != v || directed) {
            if (delete_mode) {
                vec_delete_op(&in, v, u, 1, record_moved,
                              scanned, hit, aux, row, &positive);
            } else if (vec_insert_op(&in, v, u, w, 1,
                                     scanned, hit, aux, row,
                                     events, &ec, &positive, &need)) {
                ctl[0] = i; ctl[1] = 1; ctl[2] = row; ctl[3] = positive;
                ctl[4] = ec; ctl[5] = 1; ctl[6] = need;
                return 1;
            }
            row++;
        }
        half = 0;
    }
    ctl[0] = n; ctl[1] = 0; ctl[2] = row; ctl[3] = positive; ctl[4] = ec;
    return 0;
}

/* ------------------------------------------------------------------ *
 * Stinger ingest: linked 16-entry edge blocks with fine locks.
 *
 * Store state: a block pool (16-slot neighbor/weight rows plus a fill
 * count, block id == pool slot, ids never reused so state[1] is both
 * the next id and the pool cursor), a flat block-id pool holding each
 * vertex's block list as a (offset, count, capacity) span, and a
 * per-vertex degree array.  Region accounting replays from events:
 * code = mirror*2 + (0 = block allocated, 1 = tail block freed).
 *
 * Stalls: ctl[5] = store, ctl[6] = resource (0 = block-id pool span of
 * ctl[7] slots, 1 = block pool), resume cursor as in the vec kernel.
 * ------------------------------------------------------------------ */

#define ST_BLOCK_CAPACITY 16
#define ST_MIN_LIST 4

typedef struct {
    int64_t  lock_base;
    int64_t *boff;
    int64_t *bcnt;
    int64_t *bcap;
    int64_t *deg;
    int64_t *bids;
    int64_t  bids_cap;
    int64_t *bnbr;
    double  *bwgt;
    int64_t *blen;
    int64_t  blk_cap;
    int64_t *state;   /* [0] = bid-pool cursor, [1] = next block id */
} StStore;

/* Search scan shared by insert and remove: finds (block index, slot)
 * of v and the probe count up to it; -1 block index when absent. */
static void st_find(const StStore *s, int64_t u, int64_t v,
                    int64_t *found_bi, int64_t *found_slot,
                    int64_t *probes_before)
{
    const int64_t *bids = s->bids + s->boff[u];
    int64_t bcnt = s->bcnt[u];
    int64_t acc = 0;
    for (int64_t bi = 0; bi < bcnt; bi++) {
        int64_t bid = bids[bi];
        int64_t len = s->blen[bid];
        const int64_t *nbr = s->bnbr + bid * ST_BLOCK_CAPACITY;
        for (int64_t slot = 0; slot < len; slot++) {
            if (nbr[slot] == v) {
                *found_bi = bi;
                *found_slot = slot;
                *probes_before = acc;
                return;
            }
        }
        acc += len;
    }
    *found_bi = -1;
    *found_slot = -1;
    *probes_before = acc;
}

/* One insert; returns 0 ok, -1 stall (resource/need already in ctl). */
static int st_insert_op(
    StStore *s, int64_t u, int64_t v, double w, int64_t mirror,
    int64_t no_lock, int64_t *chases, int64_t *probes, int64_t *space,
    uint8_t *hit, uint8_t *newblk, int64_t *lock, int64_t row,
    int64_t *events, int64_t *ec, int64_t *positive, int64_t *ctl)
{
    int64_t bi, slot, before;
    st_find(s, u, v, &bi, &slot, &before);
    if (bi >= 0) {
        chases[row] = bi + 1;
        probes[row] = before + slot + 1;
        space[row] = 0;
        hit[row] = 0;
        newblk[row] = 0;
        lock[row] = no_lock;
        return 0;
    }
    int64_t bcnt = s->bcnt[u];
    /* Space scan: first block with a free slot, else a new block. */
    int64_t target = -1;
    const int64_t *bids = s->bids + s->boff[u];
    for (int64_t k = 0; k < bcnt; k++) {
        if (s->blen[bids[k]] < ST_BLOCK_CAPACITY) { target = k; break; }
    }
    int64_t fresh = 0;
    if (target < 0) {
        /* Pre-check both allocations before mutating anything. */
        int64_t list_need = (bcnt == s->bcap[u])
            ? (s->bcap[u] ? s->bcap[u] * 2 : ST_MIN_LIST) : 0;
        if (list_need && s->state[0] + list_need > s->bids_cap) {
            ctl[6] = 0; ctl[7] = list_need;
            return -1;
        }
        if (s->state[1] >= s->blk_cap) {
            ctl[6] = 1; ctl[7] = 0;
            return -1;
        }
        if (list_need) {
            int64_t noff = s->state[0];
            for (int64_t k = 0; k < bcnt; k++)
                s->bids[noff + k] = s->bids[s->boff[u] + k];
            s->state[0] += list_need;
            s->boff[u] = noff;
            s->bcap[u] = list_need;
        }
        int64_t bid = s->state[1]++;
        s->blen[bid] = 0;
        s->bids[s->boff[u] + bcnt] = bid;
        s->bcnt[u] = bcnt + 1;
        events[3 * *ec] = mirror * 2;      /* block allocated */
        events[3 * *ec + 1] = bid;
        events[3 * *ec + 2] = 0;
        (*ec)++;
        target = bcnt;
        fresh = 1;
    }
    int64_t tb = s->bids[s->boff[u] + target];
    int64_t tslot = s->blen[tb];
    s->bnbr[tb * ST_BLOCK_CAPACITY + tslot] = v;
    s->bwgt[tb * ST_BLOCK_CAPACITY + tslot] = w;
    s->blen[tb] = tslot + 1;
    chases[row] = bcnt;
    probes[row] = s->deg[u];
    s->deg[u] += 1;
    space[row] = fresh ? bcnt : target + 1;
    hit[row] = 1;
    newblk[row] = (uint8_t)fresh;
    lock[row] = s->lock_base + tb;
    if (!mirror) (*positive)++;
    return 0;
}

static void st_delete_op(
    StStore *s, int64_t u, int64_t v, int64_t mirror, int64_t no_lock,
    int64_t *chases, int64_t *probes, int64_t *space, uint8_t *hit,
    uint8_t *newblk, int64_t *lock, int64_t row,
    int64_t *events, int64_t *ec, int64_t *positive)
{
    int64_t bi, slot, before;
    st_find(s, u, v, &bi, &slot, &before);
    space[row] = 0;
    if (bi < 0) {
        chases[row] = s->bcnt[u];
        probes[row] = s->deg[u];
        hit[row] = 0;
        newblk[row] = 0;
        lock[row] = no_lock;
        return;
    }
    int64_t tb = s->bids[s->boff[u] + bi];
    int64_t last = s->blen[tb] - 1;
    if (slot != last) {
        s->bnbr[tb * ST_BLOCK_CAPACITY + slot] =
            s->bnbr[tb * ST_BLOCK_CAPACITY + last];
        s->bwgt[tb * ST_BLOCK_CAPACITY + slot] =
            s->bwgt[tb * ST_BLOCK_CAPACITY + last];
    }
    s->blen[tb] = last;
    s->deg[u] -= 1;
    int64_t freed = 0;
    if (last == 0 && bi == s->bcnt[u] - 1) {
        s->bcnt[u] -= 1;
        freed = 1;
        events[3 * *ec] = mirror * 2 + 1;  /* tail block freed */
        events[3 * *ec + 1] = tb;
        events[3 * *ec + 2] = 0;
        (*ec)++;
    }
    chases[row] = bi + 1;
    probes[row] = before + slot + 1;
    hit[row] = 1;
    newblk[row] = (uint8_t)freed;
    lock[row] = s->lock_base + tb;
    if (!mirror) (*positive)++;
}

int64_t saga_stinger_ingest(
    int64_t n, const int64_t *src, const int64_t *dst, const double *wgt,
    int64_t directed, int64_t delete_mode, int64_t no_lock,
    int64_t o_lock_base,
    int64_t *o_boff, int64_t *o_bcnt, int64_t *o_bcap, int64_t *o_deg,
    int64_t *o_bids, int64_t o_bids_cap,
    int64_t *o_bnbr, double *o_bwgt, int64_t *o_blen, int64_t o_blk_cap,
    int64_t *o_state,
    int64_t i_lock_base,
    int64_t *i_boff, int64_t *i_bcnt, int64_t *i_bcap, int64_t *i_deg,
    int64_t *i_bids, int64_t i_bids_cap,
    int64_t *i_bnbr, double *i_bwgt, int64_t *i_blen, int64_t i_blk_cap,
    int64_t *i_state,
    int64_t *chases, int64_t *probes, int64_t *space, uint8_t *hit,
    uint8_t *newblk, int64_t *lock,
    int64_t *events, int64_t *ctl)
{
    StStore out = {o_lock_base, o_boff, o_bcnt, o_bcap, o_deg,
                   o_bids, o_bids_cap, o_bnbr, o_bwgt, o_blen, o_blk_cap,
                   o_state};
    StStore in  = {i_lock_base, i_boff, i_bcnt, i_bcap, i_deg,
                   i_bids, i_bids_cap, i_bnbr, i_bwgt, i_blen, i_blk_cap,
                   i_state};
    int64_t i = ctl[0];
    int64_t half = ctl[1];
    int64_t row = ctl[2];
    int64_t positive = ctl[3];
    int64_t ec = ctl[4];
    for (; i < n; i++) {
        int64_t u = src[i];
        int64_t v = dst[i];
        double w = delete_mode ? 0.0 : wgt[i];
        if (half == 0) {
            if (delete_mode) {
                st_delete_op(&out, u, v, 0, no_lock, chases, probes, space,
                             hit, newblk, lock, row, events, &ec, &positive);
            } else if (st_insert_op(&out, u, v, w, 0, no_lock,
                                    chases, probes, space, hit, newblk, lock,
                                    row, events, &ec, &positive, ctl)) {
                ctl[0] = i; ctl[1] = 0; ctl[2] = row; ctl[3] = positive;
                ctl[4] = ec; ctl[5] = 0;
                return 1;
            }
            row++;
            half = 1;
        }
        if (u != v || directed) {
            if (delete_mode) {
                st_delete_op(&in, v, u, 1, no_lock, chases, probes, space,
                             hit, newblk, lock, row, events, &ec, &positive);
            } else if (st_insert_op(&in, v, u, w, 1, no_lock,
                                    chases, probes, space, hit, newblk, lock,
                                    row, events, &ec, &positive, ctl)) {
                ctl[0] = i; ctl[1] = 1; ctl[2] = row; ctl[3] = positive;
                ctl[4] = ec; ctl[5] = 1;
                return 1;
            }
            row++;
        }
        half = 0;
    }
    ctl[0] = n; ctl[1] = 0; ctl[2] = row; ctl[3] = positive; ctl[4] = ec;
    return 0;
}

/* ------------------------------------------------------------------ *
 * DAH ingest (degree-aware hashing).
 *
 * Store state: per-chunk Robin Hood low tables (key arena + parallel
 * value arena of inline-array ids) and open-address high tables (value
 * arena of neighbor-set ids); neighbor sets are open-address tables in
 * a shared (key, weight) arena.  Table growth bump-allocates a doubled
 * span at the matching arena cursor (old spans are leaked -- arenas
 * are backing storage, not the simulated memory, which Python replays
 * from the event log: LOW_RESIZE / HIGH_RESIZE / SET_NEW / SET_RESIZE,
 * +4 when on the mirror store).
 *
 * Every operation pre-checks the worst-case arena space it could need
 * BEFORE mutating anything, so a stalled op re-runs cleanly after
 * Python grows the numpy arena named by ctl[6] (0 = low-key arena,
 * 1 = high-key arena, 2 = inline pool, 3 = set arena, 4 = set
 * metadata arrays), with the span need in ctl[7].
 * ------------------------------------------------------------------ */

#define DAH_EMPTY (-1)
#define DAH_TOMB  (-2)
#define DAH_INLINE_CAP 17   /* threshold 16 + the slot that triggers the flush */
#define DAH_SET_INIT 32

typedef struct {
    int64_t  chunks;
    int64_t *loff, *lcap, *lsize;   /* low tables: spans in lkeys/lval */
    int64_t *lkeys, *lval;
    int64_t  lkeys_cap;
    int64_t *hoff, *hcap, *hsize;   /* high tables: spans in hkeys/hval */
    int64_t *hkeys, *hval;
    int64_t  hkeys_cap;
    int64_t *inl_nbr;               /* [DAH_INLINE_CAP * inline_cap] */
    double  *inl_wgt;
    int64_t *inl_len;
    int64_t  inline_cap;
    int64_t *inl_free;              /* free-id stack, top in state[3] */
    int64_t *soff, *scap, *ssize;   /* per-set metadata, indexed by id */
    int64_t  set_meta_cap;
    int64_t *skeys;                 /* set arena (parallel swgt) */
    double  *swgt;
    int64_t  skeys_cap;
    int64_t *state;  /* [0]=lkeys cursor [1]=hkeys cursor [2]=inline next
                        [3]=inline free top [4]=set cursor [5]=set count */
} DahStore;

/* Pointers and capacities arrive packed in an int64 descriptor so the
 * ctypes signature stays flat; see NativeDAHStore._descriptor(). */
static void dah_unpack(const int64_t *d, DahStore *s)
{
    s->chunks = d[0];
    s->loff = (int64_t *)d[1]; s->lcap = (int64_t *)d[2];
    s->lsize = (int64_t *)d[3];
    s->lkeys = (int64_t *)d[4]; s->lval = (int64_t *)d[5];
    s->lkeys_cap = d[6];
    s->hoff = (int64_t *)d[7]; s->hcap = (int64_t *)d[8];
    s->hsize = (int64_t *)d[9];
    s->hkeys = (int64_t *)d[10]; s->hval = (int64_t *)d[11];
    s->hkeys_cap = d[12];
    s->inl_nbr = (int64_t *)d[13]; s->inl_wgt = (double *)d[14];
    s->inl_len = (int64_t *)d[15];
    s->inline_cap = d[16];
    s->inl_free = (int64_t *)d[17];
    s->soff = (int64_t *)d[18]; s->scap = (int64_t *)d[19];
    s->ssize = (int64_t *)d[20];
    s->set_meta_cap = d[21];
    s->skeys = (int64_t *)d[22]; s->swgt = (double *)d[23];
    s->skeys_cap = d[24];
    s->state = (int64_t *)d[25];
}

static int64_t dah_hash(int64_t key, int64_t mask)
{
    uint64_t h = (uint64_t)key * 0x9E3779B97F4A7C15ULL;
    return (int64_t)((h >> 17) & (uint64_t)mask);
}

/* (size + 1) / cap > 0.7 with cap a power of two: exact for every
 * reachable capacity (first divergence needs cap >= 2^52). */
static int dah_over_load(int64_t size, int64_t cap)
{
    return 10 * (size + 1) > 7 * cap;
}

/* Robin Hood probe; returns slot or -1, probe count in *probes. */
static int64_t rh_get(const int64_t *keys, int64_t cap, int64_t key,
                      int64_t *probes)
{
    int64_t mask = cap - 1;
    int64_t slot = dah_hash(key, mask);
    int64_t distance = 0, p = 0;
    for (;;) {
        p++;
        int64_t occ = keys[slot];
        if (occ == DAH_EMPTY) { *probes = p; return -1; }
        if (occ == key) { *probes = p; return slot; }
        if (((slot - dah_hash(occ, mask)) & mask) < distance) {
            *probes = p; return -1;
        }
        slot = (slot + 1) & mask;
        distance++;
    }
}

/* Rehash-time Robin Hood insert (unique keys, no counting). */
static void rh_raw_insert(int64_t *keys, int64_t *vals, int64_t cap,
                          int64_t key, int64_t val)
{
    int64_t mask = cap - 1;
    int64_t slot = dah_hash(key, mask);
    int64_t ck = key, cv = val, cd = 0;
    for (;;) {
        int64_t occ = keys[slot];
        if (occ == DAH_EMPTY) { keys[slot] = ck; vals[slot] = cv; return; }
        int64_t od = (slot - dah_hash(occ, mask)) & mask;
        if (od < cd) {
            int64_t t = keys[slot]; keys[slot] = ck; ck = t;
            t = vals[slot]; vals[slot] = cv; cv = t;
            cd = od;
        }
        slot = (slot + 1) & mask;
        cd++;
    }
}

/* Low-table put (space pre-checked by the caller); emits LOW_RESIZE. */
static int64_t low_put(DahStore *s, int64_t c, int64_t key, int64_t val,
                       int64_t mirror, int64_t *probes,
                       int64_t *events, int64_t *ec)
{
    int64_t moved = 0;
    if (dah_over_load(s->lsize[c], s->lcap[c])) {
        int64_t ocap = s->lcap[c], ooff = s->loff[c];
        int64_t ncap = ocap * 2, noff = s->state[0];
        for (int64_t i = 0; i < ncap; i++) s->lkeys[noff + i] = DAH_EMPTY;
        /* Slot-order rehash, as the Python twin's _rh_raw_insert loop. */
        for (int64_t i = 0; i < ocap; i++) {
            int64_t k = s->lkeys[ooff + i];
            if (k == DAH_EMPTY) continue;
            rh_raw_insert(s->lkeys + noff, s->lval + noff, ncap,
                          k, s->lval[ooff + i]);
            moved++;
        }
        s->state[0] += ncap;
        s->loff[c] = noff;
        s->lcap[c] = ncap;
        events[3 * *ec] = mirror * 4;        /* LOW_RESIZE */
        events[3 * *ec + 1] = c;
        events[3 * *ec + 2] = ncap;
        (*ec)++;
    }
    int64_t *keys = s->lkeys + s->loff[c];
    int64_t *vals = s->lval + s->loff[c];
    int64_t mask = s->lcap[c] - 1;
    int64_t slot = dah_hash(key, mask);
    int64_t p = 0;
    int64_t ck = key, cv = val, cd = 0;
    for (;;) {
        p++;
        int64_t occ = keys[slot];
        if (occ == DAH_EMPTY) {
            keys[slot] = ck; vals[slot] = cv;
            s->lsize[c] += 1;
            break;
        }
        /* Unique ingestion: the replace branch is unreachable (the
         * caller probed first), so only steal-and-continue remains. */
        int64_t od = (slot - dah_hash(occ, mask)) & mask;
        if (od < cd) {
            int64_t t = keys[slot]; keys[slot] = ck; ck = t;
            t = vals[slot]; vals[slot] = cv; cv = t;
            cd = od;
        }
        slot = (slot + 1) & mask;
        cd++;
    }
    *probes = p;
    return moved;
}

/* Robin Hood delete with backward shift; probe count in *probes. */
static void rh_delete(int64_t *keys, int64_t *vals, int64_t cap,
                      int64_t key, int64_t *probes)
{
    int64_t slot = rh_get(keys, cap, key, probes);
    if (slot < 0) return;
    int64_t mask = cap - 1;
    for (;;) {
        int64_t nxt = (slot + 1) & mask;
        int64_t occ = keys[nxt];
        if (occ == DAH_EMPTY || dah_hash(occ, mask) == nxt) break;
        keys[slot] = occ;
        vals[slot] = vals[nxt];
        slot = nxt;
    }
    keys[slot] = DAH_EMPTY;
    vals[slot] = 0;
}

/* Open-address probe; returns slot or -1, probe count in *probes. */
static int64_t oa_get(const int64_t *keys, int64_t cap, int64_t key,
                      int64_t *probes)
{
    int64_t mask = cap - 1;
    int64_t slot = dah_hash(key, mask);
    for (int64_t i = 0; i < cap; i++) {
        int64_t occ = keys[slot];
        if (occ == DAH_EMPTY) { *probes = i + 1; return -1; }
        if (occ != DAH_TOMB && occ == key) { *probes = i + 1; return slot; }
        slot = (slot + 1) & mask;
    }
    *probes = cap;
    return -1;
}

/* Rehash-time open-address insert: fresh table, first empty slot. */
static void oa_raw_insert_i(int64_t *keys, int64_t *vals, int64_t cap,
                            int64_t key, int64_t val)
{
    int64_t mask = cap - 1;
    int64_t slot = dah_hash(key, mask);
    while (keys[slot] != DAH_EMPTY) slot = (slot + 1) & mask;
    keys[slot] = key;
    vals[slot] = val;
}

static void oa_raw_insert_d(int64_t *keys, double *vals, int64_t cap,
                            int64_t key, double val)
{
    int64_t mask = cap - 1;
    int64_t slot = dah_hash(key, mask);
    while (keys[slot] != DAH_EMPTY) slot = (slot + 1) & mask;
    keys[slot] = key;
    vals[slot] = val;
}

/* Open-address put into a table with int64 values (the high tables);
 * space pre-checked by the caller; emits HIGH_RESIZE.  The caller
 * probed first, so the key is absent (tombstone reuse still applies). */
static int64_t high_put(DahStore *s, int64_t c, int64_t key, int64_t val,
                        int64_t mirror, int64_t *probes,
                        int64_t *events, int64_t *ec)
{
    int64_t moved = 0;
    if (dah_over_load(s->hsize[c], s->hcap[c])) {
        int64_t ocap = s->hcap[c], ooff = s->hoff[c];
        int64_t ncap = ocap * 2, noff = s->state[1];
        for (int64_t i = 0; i < ncap; i++) s->hkeys[noff + i] = DAH_EMPTY;
        for (int64_t i = 0; i < ocap; i++) {
            int64_t k = s->hkeys[ooff + i];
            if (k == DAH_EMPTY || k == DAH_TOMB) continue;
            oa_raw_insert_i(s->hkeys + noff, s->hval + noff, ncap,
                            k, s->hval[ooff + i]);
            moved++;
        }
        s->hsize[c] = moved;
        s->state[1] += ncap;
        s->hoff[c] = noff;
        s->hcap[c] = ncap;
        events[3 * *ec] = mirror * 4 + 1;    /* HIGH_RESIZE */
        events[3 * *ec + 1] = c;
        events[3 * *ec + 2] = ncap;
        (*ec)++;
    }
    int64_t *keys = s->hkeys + s->hoff[c];
    int64_t *vals = s->hval + s->hoff[c];
    int64_t mask = s->hcap[c] - 1;
    int64_t slot = dah_hash(key, mask);
    int64_t first_tomb = -1;
    int64_t p = 0;
    for (;;) {
        p++;
        int64_t occ = keys[slot];
        if (occ == DAH_EMPTY) {
            int64_t target = first_tomb >= 0 ? first_tomb : slot;
            keys[target] = key;
            vals[target] = val;
            s->hsize[c] += 1;
            break;
        }
        if (occ == DAH_TOMB && first_tomb < 0) first_tomb = slot;
        slot = (slot + 1) & mask;
    }
    *probes = p;
    return moved;
}

/* Neighbor-set put (key absent unless duplicate-checked by caller);
 * emits SET_RESIZE.  Space pre-checked by the caller. */
static int64_t set_put(DahStore *s, int64_t sid, int64_t key, double val,
                       int64_t mirror, int64_t *probes,
                       int64_t *events, int64_t *ec)
{
    int64_t moved = 0;
    if (dah_over_load(s->ssize[sid], s->scap[sid])) {
        int64_t ocap = s->scap[sid], ooff = s->soff[sid];
        int64_t ncap = ocap * 2, noff = s->state[4];
        for (int64_t i = 0; i < ncap; i++) s->skeys[noff + i] = DAH_EMPTY;
        for (int64_t i = 0; i < ocap; i++) {
            int64_t k = s->skeys[ooff + i];
            if (k == DAH_EMPTY || k == DAH_TOMB) continue;
            oa_raw_insert_d(s->skeys + noff, s->swgt + noff, ncap,
                            k, s->swgt[ooff + i]);
            moved++;
        }
        s->ssize[sid] = moved;
        s->state[4] += ncap;
        s->soff[sid] = noff;
        s->scap[sid] = ncap;
        events[3 * *ec] = mirror * 4 + 3;    /* SET_RESIZE */
        events[3 * *ec + 1] = sid;
        events[3 * *ec + 2] = ncap;
        (*ec)++;
    }
    int64_t *keys = s->skeys + s->soff[sid];
    double *vals = s->swgt + s->soff[sid];
    int64_t cap = s->scap[sid];
    int64_t mask = cap - 1;
    int64_t slot = dah_hash(key, mask);
    int64_t first_tomb = -1;
    int64_t p = 0;
    /* Bounded like Python's range(capacity + 1) loop; exhausting it
     * (all slots live or tombstoned) is the state where the reference
     * table raises -- settle for the first tombstone. */
    while (p <= cap) {
        p++;
        int64_t occ = keys[slot];
        if (occ == DAH_EMPTY) {
            int64_t target = first_tomb >= 0 ? first_tomb : slot;
            keys[target] = key;
            vals[target] = val;
            s->ssize[sid] += 1;
            *probes = p;
            return moved;
        }
        if (occ == DAH_TOMB && first_tomb < 0) first_tomb = slot;
        slot = (slot + 1) & mask;
    }
    keys[first_tomb] = key;
    vals[first_tomb] = val;
    s->ssize[sid] += 1;
    *probes = p;
    return moved;
}

/* Fresh neighbor set (space pre-checked); emits SET_NEW. */
static int64_t dah_new_set(DahStore *s, int64_t mirror,
                           int64_t *events, int64_t *ec)
{
    int64_t sid = s->state[5]++;
    int64_t off = s->state[4];
    s->state[4] += DAH_SET_INIT;
    s->soff[sid] = off;
    s->scap[sid] = DAH_SET_INIT;
    s->ssize[sid] = 0;
    for (int64_t i = 0; i < DAH_SET_INIT; i++)
        s->skeys[off + i] = DAH_EMPTY;
    events[3 * *ec] = mirror * 4 + 2;        /* SET_NEW */
    events[3 * *ec + 1] = sid;
    events[3 * *ec + 2] = DAH_SET_INIT;
    (*ec)++;
    return sid;
}

/* One insert; returns 0 ok, -1 stall (resource/need already in ctl). */
static int dah_insert_op(
    DahStore *s, int64_t u, int64_t v, double w, int64_t mirror,
    int64_t *o_probes, int64_t *o_ops, int64_t *o_inline, int64_t *o_degq,
    int64_t *o_flushed, int64_t *o_rehash, uint8_t *o_hit, int64_t *o_chunk,
    int64_t row, int64_t *events, int64_t *ec, int64_t *positive,
    int64_t *ctl)
{
    int64_t c = u % s->chunks;
    int64_t probes;
    int64_t hslot = oa_get(s->hkeys + s->hoff[c], s->hcap[c], u, &probes);
    int64_t hash_ops = 1, table_probes = probes;
    int64_t inline_scanned = 0, degq = 1, flushed = 0, rehash = 0, hit = 0;
    if (hslot >= 0) {
        int64_t sid = s->hval[s->hoff[c] + hslot];
        int64_t gslot = oa_get(s->skeys + s->soff[sid], s->scap[sid], v,
                               &probes);
        hash_ops = 2;
        table_probes += probes;
        if (gslot < 0) {
            int64_t need = dah_over_load(s->ssize[sid], s->scap[sid])
                ? 2 * s->scap[sid] : 0;
            if (need && s->state[4] + need > s->skeys_cap) {
                ctl[6] = 3; ctl[7] = need;
                return -1;
            }
            rehash = set_put(s, sid, v, w, mirror, &probes, events, ec);
            hash_ops = 3;
            table_probes += probes;
            hit = 1;
        }
    } else {
        degq = 2;
        int64_t lslot = rh_get(s->lkeys + s->loff[c], s->lcap[c], u,
                               &probes);
        hash_ops = 2;
        table_probes += probes;
        if (lslot < 0) {
            int64_t need = dah_over_load(s->lsize[c], s->lcap[c])
                ? 2 * s->lcap[c] : 0;
            if (need && s->state[0] + need > s->lkeys_cap) {
                ctl[6] = 0; ctl[7] = need;
                return -1;
            }
            if (s->state[3] == 0 && s->state[2] >= s->inline_cap) {
                ctl[6] = 2; ctl[7] = 0;
                return -1;
            }
            int64_t iid = s->state[3] > 0
                ? s->inl_free[--s->state[3]] : s->state[2]++;
            s->inl_len[iid] = 1;
            s->inl_nbr[iid * DAH_INLINE_CAP] = v;
            s->inl_wgt[iid * DAH_INLINE_CAP] = w;
            rehash = low_put(s, c, u, iid, mirror, &probes, events, ec);
            hash_ops = 3;
            table_probes += probes;
            hit = 1;
        } else {
            int64_t iid = s->lval[s->loff[c] + lslot];
            int64_t len = s->inl_len[iid];
            int64_t *nbr = s->inl_nbr + iid * DAH_INLINE_CAP;
            int64_t dup = 0;
            for (int64_t j = 0; j < len; j++) {
                inline_scanned = j + 1;
                if (nbr[j] == v) { dup = 1; break; }
            }
            if (!dup) {
                inline_scanned = len;
                int64_t flush = len + 1 > DAH_INLINE_CAP - 1;
                if (flush) {
                    /* Pre-check every flush allocation before the
                     * append mutates the inline array. */
                    if (s->state[5] >= s->set_meta_cap) {
                        ctl[6] = 4; ctl[7] = 0;
                        return -1;
                    }
                    if (s->state[4] + DAH_SET_INIT > s->skeys_cap) {
                        ctl[6] = 3; ctl[7] = DAH_SET_INIT;
                        return -1;
                    }
                    int64_t hneed = dah_over_load(s->hsize[c], s->hcap[c])
                        ? 2 * s->hcap[c] : 0;
                    if (hneed && s->state[1] + hneed > s->hkeys_cap) {
                        ctl[6] = 1; ctl[7] = hneed;
                        return -1;
                    }
                }
                nbr[len] = v;
                s->inl_wgt[iid * DAH_INLINE_CAP + len] = w;
                s->inl_len[iid] = len + 1;
                hit = 1;
                if (flush) {
                    int64_t dprobes;
                    rh_delete(s->lkeys + s->loff[c], s->lval + s->loff[c],
                              s->lcap[c], u, &dprobes);
                    s->lsize[c] -= 1;
                    table_probes += dprobes;
                    int64_t sid = dah_new_set(s, mirror, events, ec);
                    double *wgts = s->inl_wgt + iid * DAH_INLINE_CAP;
                    for (int64_t j = 0; j < len + 1; j++) {
                        int64_t gs = oa_get(s->skeys + s->soff[sid],
                                            s->scap[sid], nbr[j], &probes);
                        hash_ops += 1;
                        table_probes += probes;
                        if (gs < 0) {
                            /* 17 entries into a fresh 32-slot table
                             * never crosses the load factor, so this
                             * put cannot stall. */
                            rehash += set_put(s, sid, nbr[j], wgts[j],
                                              mirror, &probes, events, ec);
                            hash_ops += 1;
                            table_probes += probes;
                        }
                        flushed += 1;
                    }
                    rehash += high_put(s, c, u, sid, mirror, &probes,
                                       events, ec);
                    hash_ops += 1;
                    table_probes += probes;
                    s->inl_free[s->state[3]++] = iid;
                }
            }
        }
    }
    o_probes[row] = table_probes;
    o_ops[row] = hash_ops;
    o_inline[row] = inline_scanned;
    o_degq[row] = degq;
    o_flushed[row] = flushed;
    o_rehash[row] = rehash;
    o_hit[row] = (uint8_t)hit;
    o_chunk[row] = c;
    if (!mirror && hit) (*positive)++;
    return 0;
}

/* One remove; never allocates, so it cannot stall. */
static void dah_delete_op(
    DahStore *s, int64_t u, int64_t v, int64_t mirror,
    int64_t *o_probes, int64_t *o_ops, int64_t *o_inline, int64_t *o_degq,
    int64_t *o_flushed, int64_t *o_rehash, uint8_t *o_hit, int64_t *o_chunk,
    int64_t row, int64_t *positive)
{
    int64_t c = u % s->chunks;
    int64_t probes;
    int64_t hslot = oa_get(s->hkeys + s->hoff[c], s->hcap[c], u, &probes);
    int64_t hash_ops = 1, table_probes = probes;
    int64_t inline_scanned = 0, degq = 1, hit = 0;
    if (hslot >= 0) {
        int64_t sid = s->hval[s->hoff[c] + hslot];
        int64_t *keys = s->skeys + s->soff[sid];
        int64_t gslot = oa_get(keys, s->scap[sid], v, &probes);
        hash_ops = 2;
        table_probes += probes;
        if (gslot >= 0) {
            keys[gslot] = DAH_TOMB;
            s->swgt[s->soff[sid] + gslot] = 0.0;
            s->ssize[sid] -= 1;
            hit = 1;
        }
    } else {
        degq = 2;
        int64_t lslot = rh_get(s->lkeys + s->loff[c], s->lcap[c], u,
                               &probes);
        hash_ops = 2;
        table_probes += probes;
        if (lslot >= 0) {
            int64_t iid = s->lval[s->loff[c] + lslot];
            int64_t len = s->inl_len[iid];
            int64_t *nbr = s->inl_nbr + iid * DAH_INLINE_CAP;
            double *wgts = s->inl_wgt + iid * DAH_INLINE_CAP;
            for (int64_t j = 0; j < len; j++) {
                inline_scanned = j + 1;
                if (nbr[j] == v) {
                    nbr[j] = nbr[len - 1];
                    wgts[j] = wgts[len - 1];
                    s->inl_len[iid] = len - 1;
                    hit = 1;
                    if (len - 1 == 0) {
                        int64_t dprobes;
                        rh_delete(s->lkeys + s->loff[c],
                                  s->lval + s->loff[c],
                                  s->lcap[c], u, &dprobes);
                        s->lsize[c] -= 1;
                        table_probes += dprobes;
                        s->inl_free[s->state[3]++] = iid;
                    }
                    break;
                }
            }
        }
    }
    o_probes[row] = table_probes;
    o_ops[row] = hash_ops;
    o_inline[row] = inline_scanned;
    o_degq[row] = degq;
    o_flushed[row] = 0;
    o_rehash[row] = 0;
    o_hit[row] = (uint8_t)hit;
    o_chunk[row] = c;
    if (!mirror && hit) (*positive)++;
}

int64_t saga_dah_ingest(
    int64_t n, const int64_t *src, const int64_t *dst, const double *wgt,
    int64_t directed, int64_t delete_mode,
    const int64_t *out_desc, const int64_t *in_desc,
    int64_t *o_probes, int64_t *o_ops, int64_t *o_inline, int64_t *o_degq,
    int64_t *o_flushed, int64_t *o_rehash, uint8_t *o_hit, int64_t *o_chunk,
    int64_t *events, int64_t *ctl)
{
    DahStore out, in;
    dah_unpack(out_desc, &out);
    dah_unpack(in_desc, &in);
    int64_t i = ctl[0];
    int64_t half = ctl[1];
    int64_t row = ctl[2];
    int64_t positive = ctl[3];
    int64_t ec = ctl[4];
    for (; i < n; i++) {
        int64_t u = src[i];
        int64_t v = dst[i];
        double w = delete_mode ? 0.0 : wgt[i];
        if (half == 0) {
            if (delete_mode) {
                dah_delete_op(&out, u, v, 0, o_probes, o_ops, o_inline,
                              o_degq, o_flushed, o_rehash, o_hit, o_chunk,
                              row, &positive);
            } else if (dah_insert_op(&out, u, v, w, 0, o_probes, o_ops,
                                     o_inline, o_degq, o_flushed, o_rehash,
                                     o_hit, o_chunk, row, events, &ec,
                                     &positive, ctl)) {
                ctl[0] = i; ctl[1] = 0; ctl[2] = row; ctl[3] = positive;
                ctl[4] = ec; ctl[5] = 0;
                return 1;
            }
            row++;
            half = 1;
        }
        if (u != v || directed) {
            if (delete_mode) {
                dah_delete_op(&in, v, u, 1, o_probes, o_ops, o_inline,
                              o_degq, o_flushed, o_rehash, o_hit, o_chunk,
                              row, &positive);
            } else if (dah_insert_op(&in, v, u, w, 1, o_probes, o_ops,
                                     o_inline, o_degq, o_flushed, o_rehash,
                                     o_hit, o_chunk, row, events, &ec,
                                     &positive, ctl)) {
                ctl[0] = i; ctl[1] = 1; ctl[2] = row; ctl[3] = positive;
                ctl[4] = ec; ctl[5] = 1;
                return 1;
            }
            row++;
        }
        half = 0;
    }
    ctl[0] = n; ctl[1] = 0; ctl[2] = row; ctl[3] = positive; ctl[4] = ec;
    return 0;
}
"""


class IngestKernels:
    """ctypes facade over the compiled ingest kernels."""

    def __init__(self, lib: ctypes.CDLL) -> None:
        self._lib = lib
        lib.saga_vec_ingest.restype = ctypes.c_longlong
        lib.saga_vec_ingest.argtypes = [ctypes.c_longlong] * 1 + [
            ctypes.c_void_p,  # src
            ctypes.c_void_p,  # dst
            ctypes.c_void_p,  # wgt
            ctypes.c_longlong,  # directed
            ctypes.c_longlong,  # delete_mode
            ctypes.c_longlong,  # record_moved
            ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
            ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
            ctypes.c_longlong,
            ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
            ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
            ctypes.c_longlong,
            ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
            ctypes.c_void_p, ctypes.c_void_p,
        ]
        store = [
            ctypes.c_longlong,  # lock_base
            ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,  # boff/bcnt/bcap
            ctypes.c_void_p,  # deg
            ctypes.c_void_p, ctypes.c_longlong,  # bids, bids_cap
            ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,  # bnbr/bwgt/blen
            ctypes.c_longlong,  # blk_cap
            ctypes.c_void_p,  # state
        ]
        lib.saga_stinger_ingest.restype = ctypes.c_longlong
        lib.saga_stinger_ingest.argtypes = (
            [ctypes.c_longlong, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p]
            + [ctypes.c_longlong] * 3
            + store
            + store
            + [ctypes.c_void_p] * 8
        )
        lib.saga_dah_ingest.restype = ctypes.c_longlong
        lib.saga_dah_ingest.argtypes = (
            [ctypes.c_longlong, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p]
            + [ctypes.c_longlong] * 2
            + [ctypes.c_void_p] * 12  # descriptors, outputs, events, ctl
        )

    @staticmethod
    def _p(array: np.ndarray) -> int:
        return array.ctypes.data

    def vec_ingest(self, *args) -> int:
        return int(self._lib.saga_vec_ingest(*args))

    def stinger_ingest(self, *args) -> int:
        return int(self._lib.saga_stinger_ingest(*args))

    def dah_ingest(self, *args) -> int:
        return int(self._lib.saga_dah_ingest(*args))


_kernels: Optional[IngestKernels] = None
_disabled: FrozenSet[str] = frozenset()
_tried = False


def _disabled_structures() -> FrozenSet[str]:
    raw = os.environ.get(DISABLE_ENV, "").strip()
    if not raw:
        return frozenset()
    if raw in {"1", "all", "true"}:
        return STRUCTURE_NAMES
    names = frozenset(part.strip() for part in raw.split(",") if part.strip())
    unknown = names - STRUCTURE_NAMES
    if unknown:
        raise ValueError(
            f"{DISABLE_ENV} names unknown structures {sorted(unknown)}; "
            f"known: {sorted(STRUCTURE_NAMES)}"
        )
    return names


def _probe() -> Optional[IngestKernels]:
    global _kernels, _disabled, _tried
    if _tried:
        return _kernels
    _tried = True
    _disabled = _disabled_structures()
    if _disabled == STRUCTURE_NAMES:
        return None
    try:
        _kernels = IngestKernels(load_library(_SOURCE, "saga_ingest"))
    except Exception as exc:
        if os.environ.get(REQUIRE_ENV):
            raise RuntimeError(
                f"{REQUIRE_ENV} is set but the ingest kernels failed to "
                f"build: {exc}"
            ) from exc
        warnings.warn(
            f"compiled ingest kernels unavailable ({type(exc).__name__}: "
            f"{exc}); every batch falls back to the per-edge Python twins "
            f"and runs several times slower",
            RuntimeWarning,
            stacklevel=2,
        )
        _kernels = None
    return _kernels


def get(structure: str) -> Optional[IngestKernels]:
    """The compiled kernels if ``structure``'s ingest is enabled.

    ``structure`` must be one of :data:`STRUCTURE_NAMES`; each data
    structure looks up its own name, so individual structures can fall
    back to the Python twins for differential debugging.
    """
    kernels = _probe()
    if kernels is None or structure in _disabled:
        return None
    return kernels


def loaded() -> bool:
    """True when the compiled library is built and loadable.

    The bench scripts embed this in ``BENCH_kernels.json`` so a silent
    Python fallback cannot masquerade as a perf change.
    """
    return _probe() is not None


def reset() -> None:
    """Forget the cached probe result and env parse (test hook)."""
    global _kernels, _disabled, _tried
    _kernels = None
    _disabled = frozenset()
    _tried = False
