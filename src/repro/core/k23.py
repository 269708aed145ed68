"""K23 — the full online-phase interposer (§5.2)."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.libk23 import LIB_PATH, LibK23
from repro.core.ptracer_stage import K23Ptracer
from repro.cpu.cycles import Event
from repro.errors import InterposerAbort
from repro.interposers.base import (
    Interposer,
    prepend_ld_preload,
    reblock_child_selector,
)
from repro.kernel.syscalls import (
    PR_SET_SYSCALL_USER_DISPATCH,
    PR_SYS_DISPATCH_OFF,
    SYSCALL_DISPATCH_FILTER_BLOCK,
    Nr,
)


class K23Interposer(Interposer):
    """The hybrid ptrace + selective-rewrite + SUD-fallback interposer.

    Variants (Table 4):

    - ``default`` — fastest: no NULL-execution check, no stack switch;
    - ``ultra`` — adds the hash-set NULL-execution check (P4a/P4b);
    - ``ultra+`` — additionally switches to a dedicated stack on entry.

    All variants address P1a/P1b/P2a/P2b/P3a/P3b/P5 identically; the
    variants only toggle the two hardening features whose costs Table 5
    isolates.
    """

    state_key = "k23"
    entry_charges = (Event.TRAMPOLINE_SLED, Event.K23_HANDLER)
    #: prctl for the P1b guard, execve for the §5.3 re-attach.
    guarded = frozenset({int(Nr.prctl), int(Nr.execve)})

    def __init__(self, kernel, hook=None, variant: str = "default"):
        super().__init__(kernel, hook)
        if variant not in ("default", "ultra", "ultra+"):
            raise ValueError(f"unknown K23 variant {variant!r}")
        self.variant = variant
        self.name = f"K23-{variant}"
        if variant != "default":
            self.site_check = (Event.HASHSET_CHECK, "hashset", "libK23")
        if variant == "ultra+":
            self.switch_charges = (Event.STACK_SWITCH,)
        #: Figure 4 event trace.
        self.timeline: List[tuple] = []
        self.libk23 = LibK23(self)
        self.ptracers: Dict[int, K23Ptracer] = {}

    # -- lifecycle ------------------------------------------------------------

    def before_exec(self, process) -> None:
        """Stage 1: attach the startup ptracer and inject libK23."""
        prepend_ld_preload(process.env, LIB_PATH)
        self._attach(process)

    def _attach(self, process) -> None:
        tracer = K23Ptracer(
            self.kernel, LIB_PATH, timeline=self.timeline,
            record=lambda pid, nr: self.record(pid, nr, via="ptrace"))
        self.ptracers[process.pid] = tracer
        tracer.attach(process)
        self.timeline.append(("ptracer:attached", process.pid))

    def reattach_ptracer(self, process) -> None:
        """§5.3: re-attach before a forwarded ``execve`` so the new image
        restarts the whole online phase (startup coverage + P1a fix)."""
        existing = process.tracer
        if existing is not None and not existing.detached:
            return
        self._attach(process)
        self.timeline.append(("ptracer:reattached-for-execve", process.pid))

    def on_process_exit(self, process) -> None:
        tracer = self.ptracers.pop(process.pid, None)
        if tracer is not None and not tracer.detached:
            tracer.detach()

    def guard(self, thread, nr: int, args: List[int]) -> None:
        """Any attempt to disable dispatch aborts the process (P1b), and
        ``execve`` re-attaches a fresh ptracer before it is forwarded."""
        if nr == Nr.prctl:
            if (args[0] == PR_SET_SYSCALL_USER_DISPATCH
                    and args[1] == PR_SYS_DISPATCH_OFF):
                raise InterposerAbort(
                    "libK23: attempt to disable Syscall User Dispatch (P1b)")
        else:
            self.reattach_ptracer(thread.process)

    def on_fork_child(self, thread, child_pid: int) -> None:
        """Child-side re-init after fork: re-arm the inherited selector."""
        child = self.kernel.find_process(child_pid)
        if child is None:
            return
        state = child.interposer_state.get("k23")
        if state and state.get("selector"):
            reblock_child_selector(self.kernel, child_pid,
                                   state["selector"],
                                   SYSCALL_DISPATCH_FILTER_BLOCK)

    # -- accounting convenience ---------------------------------------------------

    def startup_state(self, process) -> Optional[dict]:
        """What the ptracer handed over (None before the handoff)."""
        state = process.interposer_state.get("k23")
        return None if state is None else state.get("from_ptracer")

    def rewritten_sites(self, process) -> List[int]:
        state = process.interposer_state.get("k23", {})
        return list(state.get("rewritten", []))
