"""Optional compiled event-loop kernel for the columnar scheduler.

The structure-of-arrays task layout (:class:`repro.sim.tasks.TaskArray`)
makes the discrete-event scheduler loop a pure function of a handful of
contiguous float64/int64 columns, so it can be compiled once with the
system C compiler and called through :mod:`ctypes` -- no third-party
build machinery, no new Python dependencies.

The kernel is a strict drop-in for the reference Python loop,
``repro.sim.scheduler._python_event_loop``:

- the float arithmetic is adds/subtracts written in the identical
  order (there are no multiply-adds for the compiler to contract, and
  the build passes ``-ffp-contract=off`` anyway), so every IEEE
  float64 intermediate matches the Python loop bit for bit;
- the free-thread heap holds totally ordered distinct ``(end, thread)``
  pairs, and pops of such a heap always yield the minimum regardless
  of internal arrangement, so the schedule cannot diverge.

Availability is best-effort: if no C compiler is present or the build
fails, :func:`get_kernel` emits one ``RuntimeWarning`` naming the
error and returns ``None``, and the scheduler uses the Python loop;
``SAGA_BENCH_NO_CKERNEL=1`` selects the Python loop on purpose, without
a warning.
The compiled object is cached under a content-hashed filename (in
``SAGA_BENCH_CKERNEL_DIR`` or the system temp dir), so the compiler
runs at most once per source revision per machine.
"""

from __future__ import annotations

import ctypes
import os
import warnings
from typing import Optional

from repro.sim.cbuild import CACHE_DIR_ENV, load_library

#: Environment variable that disables the compiled kernel entirely.
DISABLE_ENV = "SAGA_BENCH_NO_CKERNEL"

__all__ = ["DISABLE_ENV", "CACHE_DIR_ENV", "get_kernel", "reset"]

#: The kernel keeps its heap in fixed stack arrays of this size.
MAX_KERNEL_THREADS = 64

_SOURCE = r"""
#include <stdint.h>

/* Discrete-event scheduler loop over columnar task streams.
 *
 * Mirrors the scheduler's reference Python loop operation for
 * operation: same IEEE float64 adds/subtracts in the same order, and
 * a binary min-heap of (end, thread) pairs under the lexicographic
 * order Python's tuple comparison uses.  `locks` holds dense lock ids
 * (negative = lock-free task); `lock_free` must be zero-initialised,
 * matching the Python loop's dict.get(lock, 0.0) default.
 *
 * Outputs: per-task thread assignment, per-thread busy cycles, the
 * contended task indices and their wait times (prefix of length equal
 * to the returned count), and the makespan.
 */
int64_t saga_event_loop(
    int64_t n,
    int64_t threads,
    double dispatch,
    const double *unlocked_scaled,
    const int64_t *locks,
    const double *locked_scaled,
    const double *locked_uncont,
    const double *locked_cont,
    double *lock_free,
    double *busy,
    int32_t *assignment,
    int64_t *contended_idx,
    double *waits,
    double *makespan_out)
{
    double end_heap[64];
    int64_t tid_heap[64];
    int64_t t, i, contended = 0;
    if (threads > 64)
        return -1;
    for (t = 0; t < threads; t++) {
        end_heap[t] = 0.0;
        tid_heap[t] = t;
    }
    for (i = 0; i < n; i++) {
        double t_free = end_heap[0];
        int64_t tid = tid_heap[0];
        double unlocked_end = (t_free + dispatch) + unlocked_scaled[i];
        int64_t lock = locks[i];
        double end;
        if (lock >= 0) {
            double acquire_ready = lock_free[lock];
            if (acquire_ready > unlocked_end) {
                contended_idx[contended] = i;
                waits[contended] = acquire_ready - unlocked_end;
                contended++;
                end = acquire_ready + locked_cont[i];
            } else {
                end = unlocked_end + locked_uncont[i];
            }
            lock_free[lock] = end;
        } else {
            end = unlocked_end + locked_scaled[i];
        }
        assignment[i] = (int32_t)tid;
        busy[tid] += end - t_free;
        /* heapreplace((end, tid)): sift the new root down. */
        {
            int64_t pos = 0;
            for (;;) {
                int64_t child = 2 * pos + 1;
                int64_t right;
                if (child >= threads)
                    break;
                right = child + 1;
                if (right < threads &&
                    (end_heap[right] < end_heap[child] ||
                     (end_heap[right] == end_heap[child] &&
                      tid_heap[right] < tid_heap[child])))
                    child = right;
                if (end_heap[child] < end ||
                    (end_heap[child] == end && tid_heap[child] < tid)) {
                    end_heap[pos] = end_heap[child];
                    tid_heap[pos] = tid_heap[child];
                    pos = child;
                } else {
                    break;
                }
            }
            end_heap[pos] = end;
            tid_heap[pos] = tid;
        }
    }
    {
        double makespan = end_heap[0];
        for (t = 1; t < threads; t++)
            if (end_heap[t] > makespan)
                makespan = end_heap[t];
        *makespan_out = makespan;
    }
    return contended;
}
"""

_kernel: Optional[ctypes.CFUNCTYPE] = None
_tried = False


def _load():
    lib = load_library(_SOURCE, "saga_event_loop")
    fn = lib.saga_event_loop
    fn.restype = ctypes.c_int64
    fn.argtypes = [
        ctypes.c_int64,  # n
        ctypes.c_int64,  # threads
        ctypes.c_double,  # dispatch
        ctypes.c_void_p,  # unlocked_scaled
        ctypes.c_void_p,  # locks (dense)
        ctypes.c_void_p,  # locked_scaled
        ctypes.c_void_p,  # locked_uncont
        ctypes.c_void_p,  # locked_cont
        ctypes.c_void_p,  # lock_free
        ctypes.c_void_p,  # busy
        ctypes.c_void_p,  # assignment
        ctypes.c_void_p,  # contended_idx
        ctypes.c_void_p,  # waits
        ctypes.c_void_p,  # makespan_out
    ]
    return fn


def get_kernel():
    """The compiled event-loop entry point, or ``None`` if unavailable."""
    global _kernel, _tried
    if _tried:
        return _kernel
    _tried = True
    if os.environ.get(DISABLE_ENV):
        return None
    try:
        _kernel = _load()
    except Exception as exc:
        warnings.warn(
            f"compiled scheduler event loop unavailable ({type(exc).__name__}: "
            f"{exc}); dynamic schedules fall back to the Python loop and run "
            f"several times slower",
            RuntimeWarning,
            stacklevel=2,
        )
        _kernel = None
    return _kernel


def reset():
    """Forget the cached probe result (test hook)."""
    global _kernel, _tried
    _kernel = None
    _tried = False
