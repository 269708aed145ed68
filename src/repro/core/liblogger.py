"""libLogger — K23's offline-phase SUD logger (§5.1, Figure 2).

An LD_PRELOAD library (performance is irrelevant offline, so the simple
SUD mechanism suffices).  On each SIGSYS it:

1. disables dispatch through the selector (avoiding recursion),
2. resolves the triggering instruction's ``(region, offset)`` by consulting
   ``/proc/$PID/maps``,
3. records the pair — but only for *expected* regions: executable,
   non-writable, file-backed images (libc, the application binary).
   Synthetic regions (the loader stub, anonymous maps, stacks) are excluded
   because their layout is not stable across runs, and writable/generated
   code must never be rewritten later (§5.1),
4. forwards the original call and re-enables dispatch.

A ptracer-like companion guarantees libLogger stays injected across
``execve`` even when the program clears its environment — purely to
maximize coverage, not a security mechanism (§5.3).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.logs import SiteLog
from repro.interposers.base import (
    Interposer,
    allocate_selector_page,
    make_injector_library,
    prepend_ld_preload,
    write_selector,
)
from repro.kernel.procfs import MapsEntry, entry_for, parse_maps, render_maps
from repro.kernel.ptrace import Tracer
from repro.kernel.syscall_impl import BLOCKED
from repro.kernel.syscalls import (
    SIGSYS,
    SYSCALL_DISPATCH_FILTER_ALLOW,
    SYSCALL_DISPATCH_FILTER_BLOCK,
)
from repro.memory.pages import Prot

LIB_PATH = "/opt/k23/liblogger.so"


def region_is_expected(process, region) -> bool:
    """§5.1's filter: executable, non-writable, file-backed regions only."""
    if region is None:
        return False
    if region.name.startswith("["):  # [ld.so], [vdso], [stack], [anon]...
        return False
    prot = process.address_space.prot_at(region.start)
    return bool(prot & Prot.EXEC) and not prot & Prot.WRITE


class LibLogger(Interposer):
    """The offline logger; one :class:`SiteLog` per traced program path."""

    name = "libLogger"

    def __init__(self, kernel, hook=None):
        super().__init__(kernel, hook)
        #: program path → accumulated SiteLog (merged across runs/inputs).
        self.logs: Dict[str, SiteLog] = {}
        #: Figure 2 event trace: (step, detail) tuples.
        self.timeline = []
        #: The maps text of the previous trap and its parse: the layout
        #: changes at a handful of traps per run, not at every one.
        self._maps_text: Optional[bytes] = None
        self._maps: List[MapsEntry] = []
        make_injector_library(kernel, LIB_PATH, "liblogger",
                              self._constructor)

    def before_exec(self, process) -> None:
        prepend_ld_preload(process.env, LIB_PATH)
        # The injection-guarantee companion (§5.3): re-injects libLogger on
        # execve; records nothing itself.
        guard = Tracer(self.kernel)
        guard.disable_vdso = False

        def enforce(proc, path, argv, env):
            prepend_ld_preload(env, LIB_PATH)
            return env

        guard.on_execve = enforce
        guard.attach(process)

    def maps_entries(self, process) -> List[MapsEntry]:
        """The parsed ``/proc/$PID/maps`` of *process*, rendered now and
        parsed only when its text differs from the previous call's."""
        text = render_maps(process)
        if text != self._maps_text:
            self._maps_text, self._maps = text, parse_maps(text.decode())
        return self._maps

    def log_for(self, program: str) -> SiteLog:
        if program not in self.logs:
            self.logs[program] = SiteLog(program)
        return self.logs[program]

    # -- constructor --------------------------------------------------------------

    def _constructor(self, thread, base: int) -> None:
        process = thread.process
        selector = allocate_selector_page(self.kernel, process)
        process.interposer_state["liblogger"] = {"selector": selector}
        process.dispositions.set_action(SIGSYS, self._sigsys_handler)
        for t in process.threads:
            t.sud.arm(allow_start=0, allow_len=0, selector_addr=selector)
        process.sud_armed_ever = True
        write_selector(self.kernel, process, selector,
                       SYSCALL_DISPATCH_FILTER_BLOCK)
        self.timeline.append(("init", process.path))

    def on_fork_child(self, thread, child_pid: int) -> None:
        from repro.interposers.base import reblock_child_selector

        child = self.kernel.find_process(child_pid)
        if child is None:
            return
        state = child.interposer_state.get("liblogger")
        if state and state.get("selector"):
            reblock_child_selector(self.kernel, child_pid,
                                   state["selector"],
                                   SYSCALL_DISPATCH_FILTER_BLOCK)

    # -- SIGSYS handler (steps ②–④ of Figure 2) --------------------------------------

    def _sigsys_handler(self, sigctx) -> None:
        thread = sigctx.thread
        process = thread.process
        selector = process.interposer_state["liblogger"]["selector"]
        nr = sigctx.info["nr"]
        site = sigctx.fault_rip
        args = [sigctx.saved["regs"][reg] for reg in (7, 6, 2, 10, 8, 9)]

        # ② step: trap delivered; disable dispatch while we work.
        write_selector(self.kernel, process, selector,
                       SYSCALL_DISPATCH_FILTER_ALLOW)

        # ③ step: resolve and record the site by parsing /proc/$PID/maps
        # (the literal mechanism of §5.1; the logger's own open/read/close
        # round trips are charged as interposer-internal kernel work).
        from repro.cpu.cycles import Event

        self.kernel.cycles.charge(Event.KERNEL_SYSCALL, times=3)
        entry = entry_for(self.maps_entries(process), site)
        if (entry is not None and entry.executable and not entry.writable
                and entry.path and not entry.path.startswith("[")):
            log = self.log_for(process.path)
            if log.add(entry.path, site - entry.start):
                self.timeline.append(
                    ("log", f"{entry.path}+{site - entry.start:#x}"))

        # ④ step: invoke the original call, re-enable, return its result.
        result = self.run_hook(thread, nr, args, via="sud")
        if not thread._just_execed:
            write_selector(self.kernel, process, selector,
                           SYSCALL_DISPATCH_FILTER_BLOCK)
        if result is BLOCKED:
            thread._sud_restart_credit = True
            sigctx.set_resume_rip(site)
            return
        sigctx.set_return_value(result)
