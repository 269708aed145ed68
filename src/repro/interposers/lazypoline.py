"""lazypoline: SUD-discovery runtime rewriting (Jacobs et al., DSN'24).

Mechanism (faithful to §2.2.2): the LD_PRELOAD constructor installs the
trampoline at address 0 and arms SUD.  The *first* execution of each
``syscall``/``sysenter`` site raises SIGSYS; the handler emulates the call
and rewrites the site to ``callq *%rax`` so subsequent executions take the
binary-rewritten fast path.  No static disassembly is needed (P3a ✓) and
dynamically generated/loaded code is covered (P2a ✓).

Faithful flaws (the paper's §4.5 analysis of the open-source prototype):

- **non-atomic patching** — the two replacement bytes are stored
  separately; a thread executing the site between the stores fetches a torn
  encoding (``FF 05 …``) and faults or misexecutes;
- **no cross-core coherence** — no instruction-stream invalidation is
  performed on other cores, so they may keep executing the stale decode;
- **permission-restore assumptions** — pages are unconditionally flipped to
  rwx and "restored" to r-x, clobbering whatever protection (e.g. XOM) the
  page really had;
- **P3b** — the handler rewrites whatever address faulted: redirect control
  flow into data bytes that decode as ``syscall`` and lazypoline happily
  patches your data;
- **P1b** — a ``prctl(PR_SYS_DISPATCH_OFF)`` is forwarded verbatim,
  silently disarming discovery for every not-yet-rewritten site;
- **P4a** — no NULL-execution check at the trampoline entry.
"""

from __future__ import annotations

from repro.cpu.cycles import Event
from repro.interposers.base import (
    Interposer,
    allocate_selector_page,
    install_trampoline,
    make_injector_library,
    prepend_ld_preload,
    reblock_child_selector,
    write_selector,
)
from repro.kernel.syscalls import SIGSYS, SYSCALL_DISPATCH_FILTER_BLOCK
from repro.memory.pages import Prot, page_base, round_up_pages
from repro.observability.events import RewriteApplied

LIB_PATH = "/opt/interposers/liblazypoline.so"


class LazypolineInterposer(Interposer):
    """SUD-discovery rewriting with the upstream prototype's flaws."""

    name = "lazypoline"
    state_key = "lazypoline"
    # No NULL-execution check (P4a): whatever reached the sled is treated
    # as a legitimate rewritten site.
    entry_charges = (Event.TRAMPOLINE_SLED, Event.LAZYPOLINE_HANDLER)

    def __init__(self, kernel, hook=None):
        super().__init__(kernel, hook)
        # SIGSYS discovery: rewrite first (P3b: whatever RIP pointed at
        # gets patched), then emulate the intercepted call.
        self.discover = self._rewrite_lazily
        self._entry_idx = kernel.hostcalls.register(self.intercept,
                                                    "lazypoline.entry")
        make_injector_library(kernel, LIB_PATH, "lazypoline",
                              self._constructor)

    def before_exec(self, process) -> None:
        prepend_ld_preload(process.env, LIB_PATH)

    # -- constructor -----------------------------------------------------------

    def _constructor(self, thread, base: int) -> None:
        process = thread.process
        install_trampoline(self.kernel, process, self._entry_idx, xom=True)
        selector = allocate_selector_page(self.kernel, process)
        process.interposer_state["lazypoline"] = {
            "selector": selector,
            "rewritten": [],
        }
        process.dispositions.set_action(SIGSYS, self.sigsys_entry)
        for t in process.threads:
            t.sud.arm(allow_start=0, allow_len=0, selector_addr=selector)
        process.sud_armed_ever = True
        write_selector(self.kernel, process, selector,
                       SYSCALL_DISPATCH_FILTER_BLOCK)

    def on_fork_child(self, thread, child_pid: int) -> None:
        child = self.kernel.find_process(child_pid)
        if child is None:
            return
        state = child.interposer_state.get("lazypoline")
        if state and state.get("selector"):
            reblock_child_selector(self.kernel, child_pid,
                                   state["selector"],
                                   SYSCALL_DISPATCH_FILTER_BLOCK)

    # -- the flawed runtime rewrite (P5 / P3b) -----------------------------------

    def _rewrite_lazily(self, thread, site: int) -> None:
        """Patch *site* to ``callq *%rax`` the way the prototype does."""
        kernel = self.kernel
        process = thread.process
        space = process.address_space
        start = page_base(site)
        span = round_up_pages((site + 2) - start)
        # Flaw: permissions are not saved — the page is assumed to have been
        # r-x and is unconditionally "restored" to r-x afterwards.
        kernel.cycles.charge(Event.MPROTECT)
        space.mprotect(start, span, Prot.READ | Prot.WRITE | Prot.EXEC)
        # Flaw: the two bytes are stored separately (non-atomic).  Another
        # thread scheduled between the stores can fetch a torn instruction.
        space.write_kernel(site, b"\xff")
        thread.icache.invalidate_range(site, 2)  # local coherence only
        kernel.preemption_window(thread)
        space.write_kernel(site + 1, b"\xd0")
        thread.icache.invalidate_range(site, 2)
        # Flaw: no cross-core instruction-stream invalidation here — other
        # threads' icaches keep whatever they had.
        kernel.cycles.charge(Event.MPROTECT)
        space.mprotect(start, span, Prot.READ | Prot.EXEC)
        kernel.cycles.charge(Event.REWRITE_SITE)
        process.interposer_state["lazypoline"]["rewritten"].append(site)
        if kernel.bus.enabled:
            kernel.bus.emit(RewriteApplied, ts=kernel.cycles.cycles,
                            pid=process.pid, tid=thread.tid, site=site,
                            protocol="lazy-unsafe", atomic=False,
                            coherent=False)
