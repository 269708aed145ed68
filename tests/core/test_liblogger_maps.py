"""libLogger's one-entry maps cache leaves every offline log unchanged.

The offline phase parses ``/proc/$PID/maps`` only when its text changed
since the previous trap.  Table 2's counts and the exported logs of the
stress, nginx, redis and sqlite builds are pinned to their values before
that cache, and on those four runs the cached entries equal a fresh parse
at every trap.
"""

import hashlib
import json

import pytest

from repro import runapi
from repro.core.liblogger import LibLogger
from repro.evaluation.tables import table2_site_counts
from repro.kernel.procfs import parse_maps, render_maps

#: SHA-256 of ``json.dumps(sorted(offline_logs(workload).items()))``.
OFFLINE_LOG_DIGESTS = {
    "stress": "6b79b5c748d3250c9ae8a952258fbf88f9f691a8775d08d3d6929f0b6c868cf9",
    "nginx": "95805ababb41e776b5054d1759e7089a4272afa36394c13d54a0e7265482fbc5",
    "redis": "19c47c5b18aea52cbaebff9822dd70296b1ea249b9d9f569333f6f24463bea2e",
    "sqlite": "ab9d58fe3e15c25d5c7162fd4024e48a65c7bcb50587381d45288f6add71c425",
}


def test_table2_counts_unchanged():
    assert list(table2_site_counts().values()) == \
        [7, 9, 10, 11, 13, 20, 43, 44, 92]


@pytest.fixture
def checked_traps(monkeypatch):
    """Check every ``maps_entries`` call against a fresh parse, on an
    empty offline memo; yields the per-call trap log."""
    real = LibLogger.maps_entries
    traps = []

    def checked(self, process):
        entries = real(self, process)
        assert entries == parse_maps(render_maps(process).decode())
        traps.append(entries)
        return entries

    monkeypatch.setattr(LibLogger, "maps_entries", checked)
    runapi._offline_recipe.cache_clear()
    yield traps
    runapi._offline_recipe.cache_clear()


@pytest.mark.parametrize("workload", sorted(OFFLINE_LOG_DIGESTS))
def test_offline_logs_unchanged(workload, checked_traps):
    logs = runapi.offline_logs(workload)
    digest = hashlib.sha256(
        json.dumps(sorted(logs.items())).encode()).hexdigest()
    assert digest == OFFLINE_LOG_DIGESTS[workload]
    # The layout is stable across the run's traps: one parse serves all.
    assert len(checked_traps) > 1
    assert len({id(entries) for entries in checked_traps}) < \
        len(checked_traps)
