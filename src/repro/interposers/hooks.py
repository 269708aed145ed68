"""Reusable interposition functions (hooks).

The paper's use-case catalogue (§1) spans tracing, sandboxing, reliability,
and emulation; all of them are *hooks* over the same interposer substrate.
This module ships composable, production-shaped implementations of the
common ones, usable with any interposer in this package::

    from repro.interposers.hooks import TracingHook, SandboxHook, chain
    k23 = K23Interposer(kernel, hook=chain(TracingHook(), SandboxHook(...)))

Every hook follows the standard signature
``hook(thread, nr, args, forward) -> result`` and must return either the
forwarded result or its own (negative-errno) verdict.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.kernel.syscall_impl import BLOCKED
from repro.kernel.syscalls import Errno, Nr


def chain(*hooks):
    """Compose hooks left-to-right: each sees the next as its ``forward``.

    The leftmost hook runs first; a hook that declines to call its forward
    short-circuits the rest (sandbox-deny semantics).
    """
    if not hooks:
        raise ValueError("chain() needs at least one hook")

    def composed(thread, nr, args, forward):
        def run(index: int):
            if index == len(hooks):
                return forward()
            return hooks[index](thread, nr, args, lambda: run(index + 1))

        return run(0)

    return composed


class TracingHook:
    """strace-style recording: (pid, name, args, result) tuples.

    A thin adapter over the instrumentation bus: pass ``bus`` (usually
    ``kernel.bus``) and every observed call is also published as a
    :class:`~repro.observability.events.HookObserved` event, so trace
    sinks see application syscalls alongside kernel-side spans."""

    def __init__(self, capture_args: int = 3, bus=None):
        self.capture_args = capture_args
        self.bus = bus
        self.events: List[Tuple[int, str, Tuple[int, ...], int]] = []

    def __call__(self, thread, nr, args, forward):
        result = forward()
        if result is not BLOCKED:
            self.events.append((thread.process.pid, Nr.name_of(nr),
                                tuple(args[: self.capture_args]), result))
            bus = self.bus
            if bus is not None and bus.enabled:
                from repro.observability.events import HookObserved

                bus.emit(
                    HookObserved, ts=thread.process.kernel.cycles.cycles,
                    pid=thread.process.pid, tid=thread.tid, nr=nr,
                    hook="tracing",
                    result=result if isinstance(result, int) else None)
        return result

    def formatted(self) -> List[str]:
        return [f"[{pid}] {name}({', '.join(f'{a:#x}' for a in args)})"
                f" = {result}"
                for pid, name, args, result in self.events]


class CountingHook:
    """Per-syscall histogram (the `strace -c` summary).

    Like :class:`TracingHook`, optionally a bus adapter: with ``bus``
    set, each counted call is published as ``HookObserved``."""

    def __init__(self, bus=None):
        self.counts: Dict[int, int] = collections.Counter()
        self.bus = bus

    def __call__(self, thread, nr, args, forward):
        result = forward()
        if result is not BLOCKED:
            self.counts[nr] += 1
            bus = self.bus
            if bus is not None and bus.enabled:
                from repro.observability.events import HookObserved

                bus.emit(
                    HookObserved, ts=thread.process.kernel.cycles.cycles,
                    pid=thread.process.pid, tid=thread.tid, nr=nr,
                    hook="counting",
                    result=result if isinstance(result, int) else None)
        return result

    def summary(self) -> str:
        total = sum(self.counts.values())
        lines = [f"{'calls':>8}  syscall", f"{'-' * 8}  {'-' * 20}"]
        for nr, count in sorted(self.counts.items(),
                                key=lambda item: -item[1]):
            lines.append(f"{count:>8}  {Nr.name_of(nr)}")
        lines.append(f"{total:>8}  total")
        return "\n".join(lines)


class SandboxHook:
    """Allowlist/denylist filtering with a configurable verdict errno."""

    def __init__(self, deny: Iterable[int] = (),
                 allow_only: Optional[Iterable[int]] = None,
                 errno: int = Errno.EPERM,
                 kill_on_violation: bool = False):
        self.deny = frozenset(int(nr) for nr in deny)
        self.allow_only = (None if allow_only is None
                           else frozenset(int(nr) for nr in allow_only))
        self.errno = errno
        self.kill_on_violation = kill_on_violation
        self.violations: List[Tuple[int, int]] = []

    def _blocked(self, nr: int) -> bool:
        if nr in self.deny:
            return True
        if self.allow_only is not None and nr not in self.allow_only:
            return True
        return False

    def __call__(self, thread, nr, args, forward):
        if self._blocked(nr):
            self.violations.append((thread.process.pid, nr))
            if self.kill_on_violation:
                from repro.errors import InterposerAbort

                raise InterposerAbort(
                    f"sandbox violation: {Nr.name_of(nr)}")
            return -self.errno
        return forward()


class RedirectHook:
    """Path-redirection (the OS-emulation / compatibility-layer idiom):
    rewrites the path argument of ``openat`` in place before forwarding."""

    PATH_SYSCALLS = {int(Nr.openat): 1, int(Nr.open): 0,
                     int(Nr.stat): 0, int(Nr.access): 0,
                     int(Nr.unlink): 0}

    def __init__(self, mapping: Dict[str, str]):
        self.mapping = dict(mapping)
        self.redirections: List[Tuple[str, str]] = []

    def __call__(self, thread, nr, args, forward):
        arg_index = self.PATH_SYSCALLS.get(nr)
        if arg_index is not None and args[arg_index]:
            original = thread.process.address_space.read_cstr(
                args[arg_index])
            target = self.mapping.get(original)
            if target is not None:
                if len(target) > len(original):
                    # In-place rewrite only (no tracee allocation): the
                    # mapping must not grow the string.
                    raise ValueError(
                        f"redirect target longer than source: {original!r}")
                thread.process.address_space.write_kernel(
                    args[arg_index], target.encode() + b"\x00")
                self.redirections.append((original, target))
        return forward()


@dataclass
class LatencyHook:
    """Fault-injection for reliability testing: adds modelled latency (and
    optional spurious EINTR) to selected syscalls."""

    target_nrs: frozenset
    extra_cycles: int = 10_000
    fail_every: int = 0  # 0 = never inject a failure
    _seen: int = field(default=0, init=False)

    def __call__(self, thread, nr, args, forward):
        if nr not in self.target_nrs:
            return forward()
        self._seen += 1
        thread.process.kernel.cycles.charge_cycles(self.extra_cycles,
                                                   label="hook-latency")
        if self.fail_every and self._seen % self.fail_every == 0:
            return -Errno.EINTR
        return forward()


def latency_hook(nrs: Sequence[int], extra_cycles: int = 10_000,
                 fail_every: int = 0) -> LatencyHook:
    return LatencyHook(frozenset(int(nr) for nr in nrs),
                       extra_cycles, fail_every)
