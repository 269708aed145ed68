"""Pure SUD interposition (and the armed-but-inactive calibration variant).

The SIGSYS path is the whole story here: every application syscall costs a
kernel entry + signal delivery + handler + sigreturn — the 15.3× of Table 5.
``interpose=False`` arms SUD but leaves the selector at ALLOW, isolating the
armed-kernel slow path ("SUD-no-interposition" in Table 5), the floor under
lazypoline's and K23's overheads.
"""

from __future__ import annotations

from repro.interposers.base import (
    Interposer,
    allocate_selector_page,
    make_injector_library,
    prepend_ld_preload,
    reblock_child_selector,
    write_selector,
)
from repro.kernel.syscalls import (
    SIGSYS,
    SYSCALL_DISPATCH_FILTER_ALLOW,
    SYSCALL_DISPATCH_FILTER_BLOCK,
)

LIB_PATH = "/opt/interposers/libsud.so"


class SudInterposer(Interposer):
    """LD_PRELOAD library that arms SUD and handles SIGSYS in user space.

    Its SIGSYS handler is the shared body (:meth:`Interposer.intercept`):
    disable dispatch while the handler itself works (the selector trick,
    §2.1), forward, then re-enable before returning.
    """

    state_key = "sud"

    def __init__(self, kernel, hook=None, interpose: bool = True):
        super().__init__(kernel, hook)
        self.interpose = interpose
        self.name = "SUD" if interpose else "SUD-no-interposition"
        make_injector_library(kernel, LIB_PATH, "sud", self._constructor)

    def before_exec(self, process) -> None:
        prepend_ld_preload(process.env, LIB_PATH)

    # -- library constructor (runs pre-main via the loader stub) ----------------

    def _constructor(self, thread, base: int) -> None:
        process = thread.process
        selector = allocate_selector_page(self.kernel, process)
        process.interposer_state["sud"] = {"selector": selector}
        process.dispositions.set_action(SIGSYS, self.sigsys_entry)
        for t in process.threads:
            t.sud.arm(allow_start=0, allow_len=0, selector_addr=selector)
        process.sud_armed_ever = True
        value = (SYSCALL_DISPATCH_FILTER_BLOCK if self.interpose
                 else SYSCALL_DISPATCH_FILTER_ALLOW)
        write_selector(self.kernel, process, selector, value)

    def on_fork_child(self, thread, child_pid: int) -> None:
        child = self.kernel.find_process(child_pid)
        if child is None or not self.interpose:
            return
        selector = child.interposer_state.get("sud", {}).get("selector")
        if selector:
            reblock_child_selector(self.kernel, child_pid, selector,
                                   SYSCALL_DISPATCH_FILTER_BLOCK)
