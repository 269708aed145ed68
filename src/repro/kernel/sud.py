"""Syscall User Dispatch (SUD) state.

Per-thread, as in Linux: ``prctl(PR_SET_SYSCALL_USER_DISPATCH, ON, offset,
len, selector_addr)`` arms dispatch with a user-memory *selector byte* and an
allowlisted address range.  At syscall entry the kernel checks, in order:

1. dispatch armed?
2. instruction pointer inside the allowlisted ``[offset, offset+len)``? → run
   the syscall normally (this is how a handler's own ``syscall`` instructions
   avoid recursion when the selector trick is not used);
3. selector byte == ``SYSCALL_DISPATCH_FILTER_BLOCK``? → deliver SIGSYS.

Once *any* thread of a process has ever armed SUD, every syscall of that
process takes a slower kernel entry path — the "SUD-no-interposition" cost
the paper isolates in Table 5 and that lazypoline and K23 pay even on their
rewritten fast paths.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.kernel.syscalls import (
    SYSCALL_DISPATCH_FILTER_ALLOW,
    SYSCALL_DISPATCH_FILTER_BLOCK,
)


@dataclass
class SudState:
    """One thread's SUD configuration."""

    enabled: bool = False
    selector_addr: int = 0
    allow_start: int = 0
    allow_len: int = 0

    def arm(self, allow_start: int, allow_len: int, selector_addr: int) -> None:
        self.enabled = True
        self.allow_start = allow_start
        self.allow_len = allow_len
        self.selector_addr = selector_addr

    def disarm(self) -> None:
        self.enabled = False
        self.selector_addr = 0
        self.allow_start = 0
        self.allow_len = 0

    def should_dispatch(self, rip: int, read_selector) -> bool:
        """Whether a syscall issued at *rip* must be turned into SIGSYS.

        ``read_selector(addr)`` reads the selector byte from user memory
        (kernel-privilege read, as Linux does).
        """
        if not self.enabled:
            return False
        start = self.allow_start
        if self.allow_len > 0 and start <= rip < start + self.allow_len:
            return False
        if self.selector_addr == 0:
            return True  # no selector configured: always dispatch
        return read_selector(self.selector_addr) == SYSCALL_DISPATCH_FILTER_BLOCK

    def copy(self) -> "SudState":
        return SudState(self.enabled, self.selector_addr,
                        self.allow_start, self.allow_len)
