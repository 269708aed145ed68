"""Differential conformance cells: one (mechanism, workload, seed) run.

The oracle is the ``native`` registry entry — the *null interposer*, i.e.
unmodified execution.  "Making 'syscall' a Privilege not a Right"-style
validation: an interposition mechanism is conformant iff, under the same
seeded fault schedule, the application cannot tell it was interposed.  A
cell runs one mechanism on one workload under one schedule and snapshots
every application-observable channel:

- exit status + core-dump flag,
- stdout/stderr bytes,
- the main-phase app-requested syscall sequence with *normalized* results
  (fd numbers → ``fd``, addresses → ``addr`` — interposers legitimately
  shift descriptor tables and mmap cursors; everything else must match
  exactly),
- filesystem side effects (/tmp, /home/user),
- heap memory digest,
- simulated-address signal dispositions.

Timer syscalls are excluded from the compared sequence: K23 disables the
vDSO (§5.2), so the *route* of ``clock_gettime`` legitimately differs —
the paper's P2b asymmetry, documented rather than flagged.

Normalized comparison failing ⇒ a real, app-visible divergence; this
module reports it and the PR that introduced the harness fixes it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.faultinject.engine import FaultInjector
from repro.faultinject.schedule import (FaultConfig, FaultSchedule,
                                        build_schedule)
from repro.kernel.syscalls import Errno, Nr

#: Conformance cells run this many stress iterations (enough syscall
#: occurrences for every schedule channel to land; small enough for CI).
STRESS_ITERATIONS = 40

#: Fixed kernel seed for every cell: layout must not vary across
#: mechanisms, or address-bearing observations would diverge spuriously.
#: Fault variety comes from the *schedule* seed.
KERNEL_SEED = 777

#: Syscalls whose successful result is a descriptor / an address — values
#: interposers legitimately shift (their own opens and maps move the
#: cursors before the app runs).
_FD_RETURNERS = frozenset({Nr.open, Nr.openat, Nr.socket, Nr.dup,
                           Nr.epoll_create, Nr.accept})
_ADDR_RETURNERS = frozenset({Nr.mmap, Nr.brk})
_TIMER_NRS = frozenset({Nr.clock_gettime, Nr.gettimeofday})

#: Paths whose contents count as application filesystem side effects.
_FS_ROOTS = ("/tmp", "/home/user")


#: Conformance workloads: :data:`repro.runapi.WORKLOADS` names (stress
#: runs at :data:`STRESS_ITERATIONS`).
WORKLOADS: Tuple[str, ...] = ("stress", "pwd", "touch", "ls", "cat", "clear")


def conformance_config() -> FaultConfig:
    """The default adversarial mix for conformance cells.

    Only *mechanism-invariant* channels: transient errnos (keyed on
    app-requested occurrence index), async SIGCHLD at syscall exits, and
    one SUD selector flip (a no-op for mechanisms that never arm SUD; for
    SUD-based ones it lets one call escape interposition, which must be
    app-invisible).  Instruction/quantum/window triggers are *engine*
    features exercised by dedicated tests — their firing points are
    mechanism-dependent by nature, so they don't belong in a differential
    oracle comparison.
    """
    return FaultConfig(
        horizon=40,
        errno_rate=0.15,
        errnos=(Errno.EINTR, Errno.EAGAIN, Errno.ENOMEM),
        signal_count=2,
        selector_flips=1,
        selector_flip_range=(1, 24),
    )


@dataclass
class Observation:
    """Everything the application could observe from one cell run."""

    mechanism: str
    workload: str
    seed: int
    exit_status: Optional[int]
    core_dumped: bool
    output_sha: str
    output_len: int
    syscalls: Tuple[str, ...]
    fs_state: Tuple[Tuple[str, str], ...]
    heap_sha: str
    sim_handlers: Tuple[int, ...]
    injections: Tuple[str, ...] = ()
    schedule_sha: str = ""
    #: Instrumentation-bus counter snapshot (CounterSink) for the run —
    #: diagnostic metadata, like ``injections``: mechanisms legitimately
    #: differ here (that's the whole point of the decomposition), and the
    #: block cache batches INSTRUCTION charges per block, so even one
    #: mechanism's ``CycleCharge`` tally (charge calls, delivered to the
    #: sink as running totals) differs across interpreter modes.
    #: Excluded from ``==`` and ``diff`` alike — never verdict material.
    counters: Dict = field(default_factory=dict, compare=False)

    def diff(self, oracle: "Observation") -> List[str]:
        """App-visible divergences vs the oracle (empty = conformant).

        ``injections``, ``schedule_sha``, and ``counters`` are deliberately
        not compared: which injections *fired* and what each mechanism's
        cycle/event profile looks like legitimately differ per mechanism (a
        selector flip can only land on a SUD user); what must not differ
        is what the application then observed.
        """
        out: List[str] = []
        if self.exit_status != oracle.exit_status:
            out.append(f"exit status {self.exit_status} != "
                       f"oracle {oracle.exit_status}")
        if self.core_dumped != oracle.core_dumped:
            out.append(f"core_dumped {self.core_dumped} != "
                       f"oracle {oracle.core_dumped}")
        if (self.output_sha, self.output_len) != (oracle.output_sha,
                                                  oracle.output_len):
            out.append(f"stdout/stderr bytes differ "
                       f"({self.output_len}B vs {oracle.output_len}B)")
        if self.syscalls != oracle.syscalls:
            out.append(_first_seq_divergence(self.syscalls, oracle.syscalls))
        if self.fs_state != oracle.fs_state:
            out.append(f"filesystem side effects differ: "
                       f"{dict(self.fs_state)} vs {dict(oracle.fs_state)}")
        if self.heap_sha != oracle.heap_sha:
            out.append("heap memory digest differs")
        if self.sim_handlers != oracle.sim_handlers:
            out.append(f"signal dispositions differ: {self.sim_handlers} "
                       f"vs {oracle.sim_handlers}")
        return out


def _first_seq_divergence(mine: Tuple[str, ...],
                          oracle: Tuple[str, ...]) -> str:
    for i, (a, b) in enumerate(zip(mine, oracle)):
        if a != b:
            return (f"syscall sequence diverges at #{i}: "
                    f"{a!r} != oracle {b!r}")
    return (f"syscall sequence length {len(mine)} != "
            f"oracle {len(oracle)} (common prefix matches)")


def normalize_record(record) -> str:
    """The mechanism-invariant projection of one syscall record.

    Successful fd-returners collapse to ``name=fd`` and address-returners
    to ``name=addr`` (interposers legitimately shift descriptor tables
    and mmap cursors); everything else renders as ``name=result``.  Both
    the conformance oracle comparison and the shadow harness's trace
    diffing compare sequences of these strings.
    """
    name = Nr.name_of(record.nr)
    result = record.result
    if result is None:
        return f"{name}=?"
    if record.nr in _FD_RETURNERS and result >= 0:
        return f"{name}=fd"
    if record.nr in _ADDR_RETURNERS and result > 0xFFFF:
        return f"{name}=addr"
    return f"{name}={result}"


#: Timer syscalls excluded from compared sequences (vDSO asymmetry —
#: module docstring); public so the shadow harness shares the exclusion.
TIMER_NRS = _TIMER_NRS

_normalize_record = normalize_record


def _observe(kernel, process, mechanism: str, workload: str, seed: int,
             injector: FaultInjector,
             schedule: FaultSchedule, sink=None) -> Observation:
    main = kernel.syscall_log[process.premain_log_len:]
    syscalls = tuple(_normalize_record(r) for r in main
                     if r.pid == process.pid and r.app_requested
                     and r.nr not in _TIMER_NRS)
    fs_state = []
    for root in _FS_ROOTS:
        try:
            names = kernel.vfs.listdir(root)
        except Exception:
            continue
        for name in sorted(names):
            path = f"{root}/{name}"
            if kernel.vfs.is_dir(path):
                continue
            data = bytes(kernel.vfs.read(path))
            fs_state.append((path, hashlib.sha256(data).hexdigest()[:16]))
    heap = hashlib.sha256()
    space = process.address_space
    for region in sorted(space.regions, key=lambda r: r.start):
        if region.name != "[heap]":
            continue
        heap.update(bytes(space.read_kernel(region.start, region.size)))
    sim_handlers = tuple(sorted(
        sig for sig, action in process.dispositions._actions.items()
        if not callable(action)))
    return Observation(
        mechanism=mechanism,
        workload=workload,
        seed=seed,
        exit_status=process.exit_status,
        core_dumped=process.core_dumped,
        output_sha=hashlib.sha256(bytes(process.output)).hexdigest()[:16],
        output_len=len(process.output),
        syscalls=syscalls,
        fs_state=tuple(fs_state),
        heap_sha=heap.hexdigest()[:16],
        sim_handlers=sim_handlers,
        injections=tuple(injector.log),
        schedule_sha=schedule.digest()[:16],
        counters=sink.snapshot() if sink is not None else {},
    )


def run_cell(mechanism: str, workload: str, seed: int,
             config: Optional[FaultConfig] = None,
             max_steps: int = 10_000_000,
             trace_sink=None,
             schedule: Optional[FaultSchedule] = None) -> Observation:
    """Run one conformance cell and snapshot its observable state.

    ``schedule`` is the cell's pre-built fault schedule, which must be
    ``build_schedule(seed, conformance_config())``;
    :func:`repro.evaluation.conformance.run_matrix` builds one per seed
    and shares it across that seed's cells.  Without it the cell builds
    its own from ``config``; passing both raises :class:`ValueError`.

    ``trace_sink`` (any bus sink, typically a
    :class:`~repro.observability.export.TraceSink`) rides along on the
    cell's bus; the bus is observe-only, so the Observation is identical
    with or without it.
    """
    from repro.runapi import RunConfig, prepare

    if workload not in WORKLOADS:
        raise ValueError(f"unknown conformance workload {workload!r}; "
                         f"valid: {', '.join(WORKLOADS)}")
    if schedule is None:
        schedule = build_schedule(seed, config or conformance_config())
    elif config is not None:
        raise ValueError("run_cell takes a config or a prebuilt schedule, "
                         "not both")
    # Counters ride along on every cell (prepare always attaches a
    # CounterSink): the bus is observe-only, so an attached sink cannot
    # perturb the run (the lockstep property tests pin this), and the
    # snapshots feed the matrix artifact's metadata.
    prepared = prepare(RunConfig(
        mechanism, workload, seed=KERNEL_SEED, schedule=schedule,
        sinks=(trace_sink,) if trace_sink is not None else (),
        params=((("iterations", STRESS_ITERATIONS),)
                if workload == "stress" else ())))
    kernel = prepared.kernel
    process = prepared.spawn()
    kernel.run_process(process, max_steps=max_steps)
    if not process.exited:
        raise RuntimeError(
            f"conformance cell did not finish: {mechanism}/{workload}"
            f"/seed={seed} ({max_steps} steps)")
    observation = _observe(kernel, process, mechanism, workload, seed,
                           prepared.injector, schedule,
                           sink=prepared.counters)
    # The kernel is garbage from here on, and cyclic, so only the cyclic
    # collector would free it, scanning it first.  Its decoded lines and
    # blocks are most of it; dropping them now lets reference counting
    # free them at once, so later cells' collections do not scan them.
    for proc in kernel.processes.values():
        for thread in proc.threads:
            thread.icache.flush_all()
    return observation
