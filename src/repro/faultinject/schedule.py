"""Seeded, deterministic fault schedules.

A :class:`FaultSchedule` is the *complete* pre-drawn plan of everything the
injection engine will do to a run: which app-requested syscall occurrences
fail transiently (and with which errno), which syscall exits receive an
async signal, which retired-instruction counts trigger a signal, which SUD
selector flips land between the interposer's check and kernel entry, and
which preemption windows host remote-thread munmap/mprotect/code-patch
events.  Building the schedule consumes a :class:`random.Random` seeded
with one integer and nothing else — the same seed always yields a
byte-identical :meth:`FaultSchedule.encode`, which is what makes every
divergence the conformance harness finds replayable as a regression test.

Trigger kinds (``Fault.trigger``):

``"syscall"``
    the *at*-th main-phase app-requested syscall occurrence (the transient
    errno channel — handled separately via pre-drawn per-occurrence
    uniforms, see :attr:`FaultSchedule.errno_draws`);
``"syscall-entry"``
    the *at*-th raw kernel entry of a SUD-armed thread (selector flips);
``"syscall-exit"``
    return-to-user after the *at*-th app-requested occurrence completes
    (async signal landing sites);
``"insn"``
    the retired-instruction counter reaching *at* — honoured exactly in
    both interpreter modes because the engine clips unit budgets so block
    replay is doomed to end at the trigger point;
``"quantum"``
    the *at*-th end-of-scheduler-turn boundary;
``"window"``
    the *at*-th interposer-critical preemption window (remote-thread
    events);
``"icache-flush"`` / ``"prot-change"``
    the *at*-th icache shootdown / page-permission change.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.kernel.syscalls import Errno, Nr, SIGCHLD

#: Syscalls eligible for transient-failure injection: calls whose callers
#: must already tolerate EINTR/EAGAIN/ENOMEM on real kernels.  Deliberately
#: excludes process/memory management (fork, mmap, munmap, execve...) whose
#: spurious failure changes program *structure*, and the timer calls, whose
#: occurrence counts differ across mechanisms (the vDSO asymmetry: K23
#: disables the vDSO, so clock_gettime becomes a real syscall there).
INJECTABLE_DEFAULT: FrozenSet[int] = frozenset({
    Nr.read, Nr.write, Nr.open, Nr.openat, Nr.close, Nr.lseek, Nr.stat,
    Nr.fstat, Nr.newfstatat, Nr.access, Nr.getdents64, Nr.dup, Nr.fcntl,
    Nr.ioctl, Nr.getcwd, Nr.nanosleep, Nr.futex, Nr.getrandom, Nr.uname,
    Nr.sendto, Nr.recvfrom,
})

#: Timer syscalls are neither counted nor injected (see above).
COUNT_EXEMPT: FrozenSet[int] = frozenset({Nr.clock_gettime,
                                          Nr.gettimeofday})


@dataclass(frozen=True)
class Fault:
    """One scheduled injection: fire *action* when *trigger* reaches *at*.

    Attributes:
        trigger: trigger kind (module docstring).
        at: occurrence index or instruction count the trigger fires at.
        action: ``"signal"`` (arg = signal number), ``"errno"`` (arg =
            positive errno), ``"selector-flip"`` (BLOCK→ALLOW escape),
            ``"selector-block"`` (ALLOW→BLOCK, adversarial),
            ``"munmap"`` / ``"mprotect"`` (addr/length[, arg = prot bits]),
            or ``"patch"`` (write *data* at *addr*, no shootdown — P5).
        arg, addr, length, data: action operands.
    """

    trigger: str
    at: int
    action: str
    arg: int = 0
    addr: int = 0
    length: int = 0
    data: bytes = b""

    def encode(self) -> str:
        return (f"{self.trigger}@{self.at}:{self.action}"
                f"(arg={self.arg},addr={self.addr:#x},len={self.length},"
                f"data={self.data.hex()})")

    def to_json(self) -> Dict:
        """JSON-able rendering (bytes as hex) for the replay record log."""
        return {"trigger": self.trigger, "at": self.at,
                "action": self.action, "arg": self.arg, "addr": self.addr,
                "length": self.length, "data": self.data.hex()}

    @classmethod
    def from_json(cls, record: Dict) -> "Fault":
        return cls(trigger=record["trigger"], at=record["at"],
                   action=record["action"], arg=record["arg"],
                   addr=record["addr"], length=record["length"],
                   data=bytes.fromhex(record["data"]))


@dataclass
class FaultConfig:
    """The knobs :func:`build_schedule` turns into a concrete schedule."""

    #: App-requested syscall occurrences covered by the errno channel.
    horizon: int = 400
    #: Default per-syscall transient-failure probability.
    errno_rate: float = 0.0
    #: Per-syscall-number overrides of :attr:`errno_rate`.
    errno_rates: Dict[int, float] = field(default_factory=dict)
    #: The transient failures injected (uniform choice per occurrence).
    errnos: Tuple[int, ...] = (Errno.EINTR, Errno.EAGAIN, Errno.ENOMEM)
    injectable: FrozenSet[int] = INJECTABLE_DEFAULT
    #: Async signals delivered at randomly chosen syscall-exit boundaries.
    signal_count: int = 0
    signals: Tuple[int, ...] = (SIGCHLD,)
    #: Async signals at randomly chosen retired-instruction counts.
    insn_signal_count: int = 0
    insn_range: Tuple[int, int] = (2_000, 50_000)
    #: Async signals at randomly chosen scheduler-quantum boundaries.
    quantum_signal_count: int = 0
    quantum_range: Tuple[int, int] = (5, 200)
    #: SUD selector BLOCK→ALLOW flips at randomly chosen kernel entries.
    selector_flips: int = 0
    selector_flip_range: Tuple[int, int] = (1, 30)
    #: Explicit remote-thread faults (trigger ``"window"`` etc.), appended
    #: verbatim — these carry addresses, so callers construct them per
    #: scenario rather than having the generator guess at layout.
    extra_faults: Tuple[Fault, ...] = ()

    def rate_for(self, nr: int) -> float:
        return self.errno_rates.get(int(nr), self.errno_rate)

    def to_json(self) -> Dict:
        """JSON-able rendering for the replay record log."""
        return {
            "horizon": self.horizon,
            "errno_rate": self.errno_rate,
            "errno_rates": {str(int(nr)): rate for nr, rate
                            in sorted(self.errno_rates.items())},
            "errnos": [int(e) for e in self.errnos],
            "injectable": sorted(int(nr) for nr in self.injectable),
            "signal_count": self.signal_count,
            "signals": [int(s) for s in self.signals],
            "insn_signal_count": self.insn_signal_count,
            "insn_range": list(self.insn_range),
            "quantum_signal_count": self.quantum_signal_count,
            "quantum_range": list(self.quantum_range),
            "selector_flips": self.selector_flips,
            "selector_flip_range": list(self.selector_flip_range),
            "extra_faults": [f.to_json() for f in self.extra_faults],
        }

    @classmethod
    def from_json(cls, record: Dict) -> "FaultConfig":
        return cls(
            horizon=record["horizon"],
            errno_rate=record["errno_rate"],
            errno_rates={int(nr): rate for nr, rate
                         in record["errno_rates"].items()},
            errnos=tuple(record["errnos"]),
            injectable=frozenset(record["injectable"]),
            signal_count=record["signal_count"],
            signals=tuple(record["signals"]),
            insn_signal_count=record["insn_signal_count"],
            insn_range=tuple(record["insn_range"]),
            quantum_signal_count=record["quantum_signal_count"],
            quantum_range=tuple(record["quantum_range"]),
            selector_flips=record["selector_flips"],
            selector_flip_range=tuple(record["selector_flip_range"]),
            extra_faults=tuple(Fault.from_json(f)
                               for f in record["extra_faults"]),
        )


class FaultSchedule:
    """A fully pre-drawn schedule; see the module docstring.

    Attributes:
        seed: the integer that produced everything below.
        config: the generating config.
        errno_draws: per-occurrence ``(uniform, errno)`` pairs for the
            transient-failure channel — occurrence *i* of an injectable
            syscall ``nr`` fails with ``errno`` iff
            ``uniform < config.rate_for(nr)``.  Pre-drawing the uniform per
            occurrence (rather than sampling online) keeps the stream
            independent of which mechanism is running.
        faults: every discrete scheduled fault.
    """

    def __init__(self, seed: int, config: FaultConfig,
                 errno_draws: Sequence[Tuple[float, int]],
                 faults: Sequence[Fault]):
        self.seed = seed
        self.config = config
        self.errno_draws: Tuple[Tuple[float, int], ...] = tuple(errno_draws)
        self.faults: Tuple[Fault, ...] = tuple(faults)
        self._digest: Optional[str] = None

    def by_trigger(self, trigger: str) -> List[Fault]:
        return [f for f in self.faults if f.trigger == trigger]

    def encode(self) -> bytes:
        """Canonical byte encoding — the determinism contract: same seed
        and config ⇒ byte-identical encoding, across runs and machines."""
        lines = [f"seed={self.seed}",
                 f"horizon={self.config.horizon}",
                 f"errno_rate={self.config.errno_rate!r}",
                 "errno_rates=" + ",".join(
                     f"{nr}:{rate!r}" for nr, rate in
                     sorted(self.config.errno_rates.items())),
                 "injectable=" + ",".join(
                     str(int(nr)) for nr in sorted(self.config.injectable))]
        lines += [f"draw[{i}]={u!r}:{e}"
                  for i, (u, e) in enumerate(self.errno_draws)]
        lines += [fault.encode() for fault in self.faults]
        return "\n".join(lines).encode()

    def digest(self) -> str:
        """SHA-256 of :meth:`encode`, computed on the first call: a
        schedule is never changed after it is built."""
        if self._digest is None:
            self._digest = hashlib.sha256(self.encode()).hexdigest()
        return self._digest

    def to_json(self) -> Dict:
        """Serialize the *complete* schedule — config, every pre-drawn
        errno uniform, every discrete fault — plus the canonical digest.
        This is the draw log the replay recorder embeds in its record
        bundle: replay does not re-draw anything, it reloads this."""
        return {
            "seed": self.seed,
            "config": self.config.to_json(),
            "errno_draws": [[u, e] for u, e in self.errno_draws],
            "faults": [f.to_json() for f in self.faults],
            "digest": self.digest(),
        }

    @classmethod
    def from_json(cls, record: Dict) -> "FaultSchedule":
        """Reload a serialized schedule, verifying the canonical digest
        (a corrupted or hand-edited draw log must fail loudly, not replay
        subtly different faults)."""
        schedule = cls(record["seed"], FaultConfig.from_json(record["config"]),
                       [(u, e) for u, e in record["errno_draws"]],
                       [Fault.from_json(f) for f in record["faults"]])
        want = record.get("digest")
        if want is not None and schedule.digest() != want:
            raise ValueError(
                f"fault-schedule digest mismatch: log says {want[:12]}..., "
                f"reloaded schedule is {schedule.digest()[:12]}...")
        return schedule


def build_schedule(seed: int,
                   config: Optional[FaultConfig] = None) -> FaultSchedule:
    """Expand *(seed, config)* into a concrete :class:`FaultSchedule`.

    The draw order below is part of the determinism contract — reordering
    it changes every schedule, so treat it as append-only.
    """
    config = config or FaultConfig()
    rng = random.Random(seed)
    errno_draws = [(rng.random(), int(rng.choice(config.errnos)))
                   for _ in range(config.horizon)]
    faults: List[Fault] = []
    if config.signal_count:
        count = min(config.signal_count, config.horizon)
        for at in sorted(rng.sample(range(config.horizon), count)):
            faults.append(Fault("syscall-exit", at, "signal",
                                arg=int(rng.choice(config.signals))))
    if config.insn_signal_count:
        lo, hi = config.insn_range
        for _ in range(config.insn_signal_count):
            faults.append(Fault("insn", rng.randrange(lo, hi), "signal",
                                arg=int(rng.choice(config.signals))))
    if config.quantum_signal_count:
        lo, hi = config.quantum_range
        for _ in range(config.quantum_signal_count):
            faults.append(Fault("quantum", rng.randrange(lo, hi), "signal",
                                arg=int(rng.choice(config.signals))))
    if config.selector_flips:
        lo, hi = config.selector_flip_range
        count = min(config.selector_flips, hi - lo)
        for at in sorted(rng.sample(range(lo, hi), count)):
            faults.append(Fault("syscall-entry", at, "selector-flip"))
    faults.extend(config.extra_faults)
    # Insn triggers must be sorted for the engine's budget clipping.
    faults.sort(key=lambda f: (f.trigger, f.at))
    return FaultSchedule(seed, config, errno_draws, faults)
