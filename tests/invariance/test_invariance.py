"""The invariance contract: an artifact depends on its inputs alone.

Each :data:`ENTRIES` entry is one command family of
:data:`repro.evaluation.manifest.ARTIFACTS`, run in this process on its
smoke input.  Each axis cell reruns it with one axis moved off its
default and byte-compares the exit status, stdout and written artifact
with the entry's axis-default run of this session (``--jobs 1``, the
full engine, counting-only buses, no result cache, cells in enumeration
order):

- **jobs** — ``--jobs 2``, and ``--jobs 4`` for the model-mode load test;
- **tier** — each engine tier below the full engine, selected by its
  ``REPRO_NO_*`` hatch;
- **bus** — traced: every ``CounterSink`` takes events and charges as
  objects, and every kernel's bus builds each event and each charge;
- **cache** — an empty result cache and cold process memos, then a warm
  rerun over both;
- **order** — the cells run in a shuffled order (through
  ``pipeline.run_cells``, or ``conformance.matrix_cells``).

Every run starts with every engine hatch cleared and, except a warm
rerun, with cold process memos (:func:`cold_memos`), so no run reads
state an earlier test or cell left behind: a memo whose key misses part
of its inputs shows up as a difference on the order, jobs or cache axis.

The tier axis masks one field, ``events.CycleCharge`` in the METRICS
snapshots and in the conformance ``counters`` blocks.  It counts
``charge()`` calls, and each tier batches the per-instruction charges of
a unit differently; making it tier-free moves committed artifacts and
perfbench's reference digests, so it waits for their regeneration
(ROADMAP item 1).  :func:`test_cycle_charge_tally_is_tier_free` pins the
leak as a strict xfail.

To add an entry, give :data:`ENTRIES` the command's smoke argv, the flag
that names its output, its ``--jobs`` values and whether it takes
``--no-cache`` and prints deterministic stdout; every axis then covers
it.  :func:`test_every_manifest_command_is_covered` fails until each
command family of the manifest has an entry or an :data:`EXEMPT` line.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import difflib
import io
import random
import re
import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, Tuple

import pytest

from repro.evaluation import conformance, pipeline
from repro.evaluation.cache import package_digest
from repro.evaluation.manifest import ARTIFACTS
from repro.kernel.kernel import Kernel
from repro.observability.sinks import CounterSink, Sink
from repro.tools import conformance as conformance_cli
from repro.tools import evalrun, loadtest
from repro.traffic import fleet
from tests.simutil import TIERS, select_tier


@dataclass(frozen=True)
class Entry:
    """One artifact command, as the harness runs it."""

    #: The manifest command family it stands for (:func:`family`).
    family: str
    main: Callable
    argv: Tuple[str, ...]
    #: The flag that names the artifact the run writes.
    out_flag: str = "--out"
    #: ``--jobs`` values compared with ``--jobs 1``.
    jobs: Tuple[int, ...] = (2,)
    #: Whether the command takes ``--no-cache`` (it then reads and writes
    #: the result cache unless given it).
    no_cache: bool = True
    #: Whether stdout is deterministic (the load tests print timings).
    stdout: bool = True


#: The load-test smoke of CI, scaled down from the committed 10^6 run.
_LOADTEST_SMOKE = ("--requests", "10000", "--connections", "256",
                   "--calibration-requests", "100")

ENTRIES: Dict[str, Entry] = {
    "evalrun": Entry("python -m repro evalrun", evalrun.main,
                     ("matrix", "--smoke"), out_flag="--metrics-out"),
    "conformance": Entry("python -m repro conformance",
                         conformance_cli.main, ("--smoke",),
                         no_cache=False),
    "loadtest": Entry("python -m repro loadtest", loadtest.main,
                      _LOADTEST_SMOKE, jobs=(2, 4), stdout=False),
    "loadtest-full": Entry(
        "python -m repro loadtest", loadtest.main,
        ("--serve-mode", "full", "--workload", "redis", "--mechanisms",
         "native,SUD", "--requests", "150", "--servers", "2",
         "--connections", "12", "--calibration-requests", "10", "--ramp",
         "1,4", "--seed", "23"), stdout=False),
}

#: Manifest command families the harness does not run, with the reason.
EXEMPT = {
    "python -m pytest benchmarks/":
        "pytest modules; CI's bench-smoke job reruns them and requires "
        "the committed bytes",
    "python benchmarks/bench_interp_speed.py": "its output is host timing",
}

#: The tiers below the full engine, each compared with it.
LOWER_TIERS = tuple(tier for tier in TIERS if tier != "trace-jit")

_CYCLE_CHARGE = re.compile(rb'"CycleCharge": \d+')


def family(command: str) -> str:
    """The family of a manifest command: ``python -m repro <tool>``, the
    benchmark script, or ``python -m pytest benchmarks/``."""
    words = command.split()
    if words[:3] == ["python", "-m", "repro"]:
        return " ".join(words[:4])
    if words[:3] == ["python", "-m", "pytest"]:
        return " ".join(words[:3]) + " benchmarks/"
    return " ".join(words[:2])


# ------------------------------------------------------------------ running


@dataclass(frozen=True)
class Outcome:
    status: int
    stdout: str
    artifact: bytes
    stderr: str = field(default="", compare=False)

    def masked(self) -> "Outcome":
        """This outcome with every ``CycleCharge`` count blanked."""
        return Outcome(self.status, self.stdout,
                       _CYCLE_CHARGE.sub(b'"CycleCharge": null',
                                         self.artifact), self.stderr)


def cold_memos() -> None:
    """Empty every process memo of the package: each ``lru_cache`` of its
    loaded modules and the load-test calibration memo.  The package
    digest stays, since no run can change the code it hashes."""
    for name, module in list(sys.modules.items()):
        if name != "repro" and not name.startswith("repro."):
            continue
        for value in list(vars(module).values()):
            if (callable(value) and hasattr(value, "cache_clear")
                    and value is not package_digest):
                value.cache_clear()
    fleet._CALIBRATION_CACHE.clear()


def run(entry: Entry, patch: pytest.MonkeyPatch, workdir, *, jobs: int = 1,
        tier: str = "trace-jit", cached: bool = False,
        cold: bool = True) -> Outcome:
    """Run *entry* in *workdir* on *tier* and return what it produced.

    The result cache, when *cached*, lives beside *workdir*, so a rerun
    from the same parent directory finds it warm."""
    select_tier(patch, tier)
    patch.setenv("REPRO_EVAL_CACHE", str(workdir.parent / "cache"))
    workdir.mkdir()
    patch.chdir(workdir)
    if cold:
        cold_memos()
    argv = [*entry.argv, "--jobs", str(jobs),
            entry.out_flag, "artifact.json"]
    if entry.no_cache and not cached:
        argv.append("--no-cache")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = entry.main(argv)
    artifact = workdir / "artifact.json"
    return Outcome(status, out.getvalue() if entry.stdout else "",
                   artifact.read_bytes() if artifact.exists() else b"",
                   err.getvalue())


@pytest.fixture(scope="session")
def baseline(tmp_path_factory):
    """Each entry's axis-default run, made once per session."""
    outcomes: Dict[str, Outcome] = {}

    def get(name: str) -> Outcome:
        if name not in outcomes:
            workdir = tmp_path_factory.mktemp(f"baseline-{name}") / "run"
            with pytest.MonkeyPatch.context() as patch:
                outcome = run(ENTRIES[name], patch, workdir)
            assert outcome.status == 0, outcome.stderr
            assert outcome.artifact, f"{name} wrote no artifact"
            outcomes[name] = outcome
        return outcomes[name]

    return get


def assert_same(got: Outcome, want: Outcome, label: str) -> None:
    """Fail with the first lines where *got* and *want* differ."""
    if got == want:
        return
    problems = []
    if got.status != want.status:
        problems.append(f"exit status {got.status} != {want.status}")
    for part in ("stdout", "artifact"):
        mine, theirs = getattr(got, part), getattr(want, part)
        if mine == theirs:
            continue
        if isinstance(mine, bytes):
            mine = mine.decode("utf-8", "replace")
            theirs = theirs.decode("utf-8", "replace")
        diff = list(difflib.unified_diff(
            theirs.splitlines(), mine.splitlines(), "axis default", label,
            lineterm="", n=1))
        problems.append(f"{part} differs:\n" + "\n".join(diff[:24]))
    pytest.fail(f"{label}: " + "\n".join(problems)
                + f"\nstderr:\n{got.stderr[-2000:]}", pytrace=False)


# -------------------------------------------------------------------- axes


@pytest.mark.parametrize("name, jobs", [
    (name, jobs) for name, entry in ENTRIES.items() for jobs in entry.jobs])
def test_jobs(name, jobs, baseline, monkeypatch, tmp_path):
    want = baseline(name)
    got = run(ENTRIES[name], monkeypatch, tmp_path / "run", jobs=jobs)
    assert_same(got, want, f"{name} --jobs {jobs}")


@pytest.mark.parametrize("tier", LOWER_TIERS)
@pytest.mark.parametrize("name", ENTRIES)
def test_tier(name, tier, baseline, monkeypatch, tmp_path):
    want = baseline(name)
    got = run(ENTRIES[name], monkeypatch, tmp_path / "run", tier=tier)
    assert_same(got.masked(), want.masked(), f"{name} on {tier}")


@pytest.mark.xfail(strict=True, reason="events.CycleCharge counts charge() "
                   "calls, which each engine tier batches differently")
def test_cycle_charge_tally_is_tier_free(baseline, monkeypatch, tmp_path):
    want = baseline("evalrun")
    got = run(ENTRIES["evalrun"], monkeypatch, tmp_path / "run",
              tier="chain")
    assert_same(got, want, "evalrun on chain, unmasked")


class _ObjectSink(Sink):
    """Takes every event and every charge as an object, and drops it."""

    def accept(self, event) -> None:
        pass


@pytest.mark.parametrize("name", ENTRIES)
def test_traced_bus(name, baseline, monkeypatch, tmp_path):
    want = baseline(name)
    monkeypatch.setattr(CounterSink, "each_event", True)
    monkeypatch.setattr(CounterSink, "each_charge", True)
    real_init = Kernel.__init__

    def traced_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        self.bus.attach(_ObjectSink())

    monkeypatch.setattr(Kernel, "__init__", traced_init)
    got = run(ENTRIES[name], monkeypatch, tmp_path / "run")
    assert_same(got, want, f"{name} traced")


@pytest.mark.parametrize("name", ENTRIES)
def test_cold_then_warm_cache(name, baseline, monkeypatch, tmp_path):
    """A run on an empty cache with cold memos, then a rerun on both
    warm: each prints the axis-default bytes.  A cached command runs at
    ``--jobs 2``: its cold run forks one pool for all its cells, and its
    warm rerun hits every cell, so it boots no kernel and forks no pool.
    A command without a result cache reruns its cells on warm memos."""
    entry, want = ENTRIES[name], baseline(name)
    jobs = 2 if entry.no_cache else 1
    pools, boots, stats = [], [], []
    real_pool = concurrent.futures.ProcessPoolExecutor
    real_init, real_cells = Kernel.__init__, pipeline.run_cells

    class CountingPool(real_pool):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs)
            super().__init__(*args, **kwargs)

    def counting_init(self, *args, **kwargs):
        boots.append(type(self))
        real_init(self, *args, **kwargs)

    def recording_cells(*args, **kwargs):
        result = real_cells(*args, **kwargs)
        stats.append(result.stats)
        return result

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        CountingPool)
    monkeypatch.setattr(Kernel, "__init__", counting_init)
    monkeypatch.setattr(pipeline, "run_cells", recording_cells)

    cold = run(entry, monkeypatch, tmp_path / "cold", jobs=jobs,
               cached=True)
    assert_same(cold, want, f"{name} cold")
    assert len(pools) == jobs - 1
    assert all(not s.hits for s in stats)
    del pools[:], boots[:], stats[:]
    warm = run(entry, monkeypatch, tmp_path / "warm", jobs=jobs,
               cached=True, cold=False)
    assert_same(warm, want, f"{name} warm")
    if entry.no_cache:
        assert stats and all(s.hits == s.cells and not s.misses
                             for s in stats)
        assert boots == [] and pools == []


@pytest.mark.parametrize("name", ENTRIES)
def test_shuffled_cell_order(name, baseline, monkeypatch, tmp_path):
    want = baseline(name)
    rng = random.Random(name)
    moved = []

    def shuffled(cells):
        cells = list(cells)
        order = list(cells)
        while len(order) > 1 and order == cells:
            rng.shuffle(order)
        moved.append(order != cells)
        return order

    real_cells, real_matrix = pipeline.run_cells, conformance.matrix_cells
    monkeypatch.setattr(pipeline, "run_cells", lambda specs, *args, **kw:
                        real_cells(shuffled(specs), *args, **kw))
    monkeypatch.setattr(conformance, "matrix_cells", lambda *args:
                        shuffled(real_matrix(*args)))
    got = run(ENTRIES[name], monkeypatch, tmp_path / "run")
    assert any(moved), "the shuffle left every cell in place"
    assert_same(got, want, f"{name} shuffled")


# ------------------------------------------------------------- coverage


def test_every_manifest_command_is_covered():
    """Each command family of the manifest has a harness entry or a
    one-line exemption, and neither names a family the manifest lacks."""
    families = {family(command) for command in ARTIFACTS.values()}
    covered = {entry.family for entry in ENTRIES.values()}
    assert families - covered - set(EXEMPT) == set()
    assert (covered | set(EXEMPT)) - families == set()
    assert not covered & set(EXEMPT)
