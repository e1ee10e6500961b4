"""Both update-plane paths reproduce the recorded golden digests.

``tests/data/update_plane_golden.json`` holds sha256 digests of every
structure's scripted update/delete stream and of hand-built dynamic
scheduler streams (see :mod:`tests.update_plane_golden`).  They were
recorded while the update plane still had its older implementations,
so they pin the simulated outputs across that cut: the compiled ingest
kernel and compiled event loop (the default), the per-edge Python twins
(``SAGA_BENCH_NO_CINGEST=all``) and the Python event loop
(``SAGA_BENCH_NO_CKERNEL=1``) must each reproduce every digest.
"""

import json

import pytest

from repro.sim import cingest, ckernel
from tests import update_plane_golden as golden

GOLDEN = json.loads(golden.GOLDEN_PATH.read_text())

PATHS = {
    "compiled": {},
    "python-twins": {cingest.DISABLE_ENV: "all"},
    "python-event-loop": {ckernel.DISABLE_ENV: "1"},
}


@pytest.fixture(params=sorted(PATHS))
def update_path(request, monkeypatch):
    for name in (cingest.DISABLE_ENV, ckernel.DISABLE_ENV):
        monkeypatch.delenv(name, raising=False)
    for name, value in PATHS[request.param].items():
        monkeypatch.setenv(name, value)
    cingest.reset()
    ckernel.reset()
    yield request.param
    monkeypatch.undo()
    cingest.reset()
    ckernel.reset()


def test_fixture_covers_every_case():
    assert sorted(GOLDEN) == sorted(golden.all_digests())


@pytest.mark.parametrize("name", golden.STRUCTURES)
@pytest.mark.parametrize("directed", [True, False], ids=["directed", "undirected"])
def test_structure_digests(update_path, name, directed):
    kind = "directed" if directed else "undirected"
    for threads in golden.THREADS:
        key = f"{name}/{kind}/t{threads}"
        assert golden.structure_digest(name, directed, threads) == GOLDEN[key], key


def test_scheduler_digests(update_path):
    for stream in golden.scheduler_streams():
        for threads in golden.SCHEDULER_THREADS:
            for timeline in (False, True):
                key = f"scheduler/{stream}/t{threads}" + ("/timeline" if timeline else "")
                digest = golden.scheduler_digest(stream, threads, timeline)
                assert digest == GOLDEN[key], key
