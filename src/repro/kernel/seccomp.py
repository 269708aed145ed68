"""seccomp (filter mode) — the third Linux interposition interface.

The paper's offline phase uses SUD but notes that "alternatives include
ptrace or seccomp" (§5.1), and §1 discusses seccomp's trade-off: either
comparable overheads or restricted expressiveness (no deep pointer
inspection in the filter itself).  This module implements the
``SECCOMP_RET_TRAP`` subset those use cases need: a per-process filter
evaluated at syscall entry that can allow the call, fail it with an errno,
or convert it into a SIGSYS for a user-space handler.

Faithful to the interface's limits, the filter sees only the syscall
number and raw argument *values* — never dereferenced memory — which is
exactly the expressiveness restriction the paper contrasts with SUD.

Filters are installed through the host-level API
(:meth:`SeccompState.install`), standing in for the BPF program upload;
the evaluation cost per syscall is charged via ``Event.KERNEL_SYSCALL_WORK``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

#: Cycles to evaluate a (short) filter program at syscall entry.
SECCOMP_FILTER_COST = 55


class Action(enum.IntEnum):
    """Filter verdicts (subset of SECCOMP_RET_*)."""

    ALLOW = 0x7FFF0000
    TRAP = 0x00030000
    ERRNO = 0x00050000


@dataclass(frozen=True)
class Verdict:
    """A filter's decision for one syscall."""

    action: Action
    errno: int = 0


#: A filter program: (nr, args) -> Verdict.  Pointer arguments arrive as
#: raw integers — dereferencing is impossible, as on real seccomp.
FilterProgram = Callable[[int, Sequence[int]], Verdict]


def trap_all_except(allowed: Sequence[int]) -> FilterProgram:
    """The logging idiom: TRAP everything except *allowed* numbers."""
    allowed_set = frozenset(int(nr) for nr in allowed)

    def program(nr: int, args: Sequence[int]) -> Verdict:
        if nr in allowed_set:
            return Verdict(Action.ALLOW)
        return Verdict(Action.TRAP)

    return program


def deny_with_errno(denied: Sequence[int], errno: int) -> FilterProgram:
    """The sandbox idiom: fail *denied* numbers with *errno*."""
    denied_set = frozenset(int(nr) for nr in denied)

    def program(nr: int, args: Sequence[int]) -> Verdict:
        if nr in denied_set:
            return Verdict(Action.ERRNO, errno)
        return Verdict(Action.ALLOW)

    return program


class SeccompState:
    """Per-process seccomp state: a stack of filters, most-restrictive wins
    (Linux evaluates all attached filters and takes the highest-priority
    verdict; TRAP > ERRNO > ALLOW in this subset)."""

    def __init__(self) -> None:
        self._filters: List[FilterProgram] = []
        #: Whether any filter is installed: a plain attribute, read on
        #: every kernel entry.
        self.active = False

    def install(self, program: FilterProgram) -> None:
        self._filters.append(program)
        self.active = True

    def evaluate(self, nr: int, args: Sequence[int]) -> Verdict:
        verdict = Verdict(Action.ALLOW)
        for program in self._filters:
            candidate = program(nr, list(args))
            if candidate.action == Action.TRAP:
                return candidate
            if candidate.action == Action.ERRNO:
                verdict = candidate
        return verdict

    def copy(self) -> "SeccompState":
        clone = SeccompState()
        clone._filters = list(self._filters)  # filters are inherited (fork)
        clone.active = self.active
        return clone
