"""Output gate: the simulated results a timed run produced must be right.

Three checks, from strongest to weakest:

- **Committed digests.** Each batch's simulated record (update and
  compute cycles, compute iterations, inserted edges, live edge count)
  and each hardware cell's counters hash to a short digest. Digests
  recorded for a workload's seeds live in ``digests.json`` beside this
  file; a batch whose hash differs is a failure. A seed with no
  recorded digest is reported as *unchecked*, never as passing.
- **Independent counts.** Inserted and live edge counts per batch are
  recomputed from the raw stream with numpy set operations, without
  the program's reference graph.
- **Determinism.** Every pass of one run must produce the same digests.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

DIGEST_FILE = Path(__file__).with_name("digests.json")
_DIGEST_CHARS = 16


def _hash(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        h.update(str(array.dtype).encode())
        h.update(str(array.shape).encode())
        h.update(array.tobytes())
    return h.hexdigest()[:_DIGEST_CHARS]


def batch_digests(result) -> List[str]:
    """One digest per batch of a :class:`StreamResult` (all repetitions)."""
    digests = []
    for rep in range(result.repetitions):
        for b in range(result.batches_per_rep):
            digests.append(
                _hash(
                    result.update_cycles[rep, b],
                    result.compute_cycles[rep, b],
                    result.compute_iterations[rep, b],
                    np.asarray(
                        [result.edges_inserted[rep, b], result.num_edges[rep, b]],
                        dtype=np.int64,
                    ),
                )
            )
    return digests


def cell_digest(cell) -> str:
    """Digest of one hardware-profile cell's counters and scaling cycles."""
    meta, arrays = cell.to_payload()
    return _hash(
        np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8),
        *(arrays[key] for key in sorted(arrays)),
    )


def expected_counts(
    batches, num_nodes: int, churn_fraction: float = 0.0
) -> Tuple[np.ndarray, np.ndarray]:
    """(inserted, live edges) after each batch of a directed stream.

    After each batch's inserts, the first ``churn_fraction`` of the
    batch is deleted again, as the streaming driver does.
    """
    present = np.empty(0, dtype=np.int64)
    inserted, live = [], []
    for batch in batches:
        keys = np.unique(batch.src.astype(np.int64) * num_nodes + batch.dst)
        fresh = keys[~np.isin(keys, present, assume_unique=True)]
        present = np.union1d(present, fresh)
        if churn_fraction > 0.0 and len(batch):
            count = max(1, int(len(batch) * churn_fraction))
            victims = np.unique(
                batch.src[:count].astype(np.int64) * num_nodes + batch.dst[:count]
            )
            present = np.setdiff1d(present, victims, assume_unique=True)
        inserted.append(len(fresh))
        live.append(len(present))
    return np.asarray(inserted, dtype=np.int64), np.asarray(live, dtype=np.int64)


def load_committed() -> Dict[str, Dict[str, List[str]]]:
    """``{workload: {seed: [digest, ...]}}`` from the committed file."""
    if not DIGEST_FILE.exists():
        return {}
    with open(DIGEST_FILE) as handle:
        return json.load(handle)


class Verdict:
    """Outcome of checking every pass of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.digest_status = "unchecked"

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def check_passes(
    passes: Sequence[Sequence[str]],
    committed: Optional[Sequence[str]],
    counts_ok: Optional[Sequence[Sequence[bool]]] = None,
) -> Verdict:
    """Check every unit (batch or cell) of every pass of one run.

    A unit fails when its digest differs from the committed digest at
    the same position -- or, for a seed without committed digests,
    from the first pass's -- or when ``counts_ok`` marks its edge
    counts wrong.
    """
    verdict = Verdict()
    if committed is not None:
        verdict.digest_status = "checked"
        reference = list(committed)
    else:
        reference = list(passes[0]) if passes else []
    for index, digests in enumerate(passes):
        if len(digests) != len(reference):
            verdict.problems.append(
                f"pass {index}: {len(digests)} units where "
                f"{len(reference)} were expected"
            )
        oks = counts_ok[index] if counts_ok is not None else [True] * len(digests)
        verdict.attempted += len(digests)
        verdict.failed += sum(
            1
            for position, digest in enumerate(digests)
            if position >= len(reference)
            or digest != reference[position]
            or not oks[position]
        )
    return verdict
