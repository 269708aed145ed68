"""The Table 5 METRICS document must not depend on the engine tier.

Sim cycles and every other counter already agree across tiers.  The
``events.CycleCharge`` tally does not: it counts ``charge()`` calls, and
each tier batches the per-instruction charges of a unit differently (a
compiled trace charges a whole superblock at once).  With the trace JIT
off, that one count moves for every mechanism in ``evalrun matrix``
METRICS (K23-default: 1813 → 1909 at 120 iterations).  Making the tally tier-free
changes the committed ``METRICS_table5.json`` and perfbench's reference
digests, so it waits for the change that regenerates them; until then
this test records the leak and fails loudly once it is mended.
"""

import json

import pytest

from repro.evaluation import pipeline as pipe

TIER_HATCHES = ("REPRO_NO_BLOCK_CACHE", "REPRO_NO_CHAIN",
                "REPRO_NO_TRACE_JIT")


def _metrics(monkeypatch, no_trace_jit: bool) -> str:
    # Clear every hatch first: with the block cache or chaining off the
    # trace JIT never runs, and both documents would come out alike.
    with monkeypatch.context() as patch:
        for hatch in TIER_HATCHES:
            patch.delenv(hatch, raising=False)
        if no_trace_jit:
            patch.setenv("REPRO_NO_TRACE_JIT", "1")
        doc = pipe.run_matrix((), mechanisms=("K23-ultra",), smoke=True,
                              metrics=True).metrics
    return json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.xfail(strict=True, reason="CycleCharge tallies charge() calls, "
                   "which each engine tier batches differently")
def test_metrics_do_not_depend_on_the_engine_tier(monkeypatch):
    assert _metrics(monkeypatch, False) == _metrics(monkeypatch, True)
