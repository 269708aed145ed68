"""Page-granularity constants and protection flags."""

from __future__ import annotations

import enum

#: ``address >> PAGE_SHIFT`` is :func:`page_index` without the call.
PAGE_SHIFT = 12
#: Page size in bytes (x86-64 base pages).
PAGE_SIZE = 1 << PAGE_SHIFT

#: Size of the modelled user virtual address space (47 bits, as on Linux
#: x86-64 with 4-level paging).  Used by the zpoline bitmap to compute its
#: reserved virtual footprint (P4b).
USER_VA_BITS = 47
USER_VA_SIZE = 1 << USER_VA_BITS


class Prot(enum.IntFlag):
    """``mmap``/``mprotect`` protection flags (values match Linux)."""

    NONE = 0
    READ = 1
    WRITE = 2
    EXEC = 4

    @property
    def text(self) -> str:
        """Render like a ``/proc/$PID/maps`` permission column (``rwxp``)."""
        return (
            ("r" if self & Prot.READ else "-")
            + ("w" if self & Prot.WRITE else "-")
            + ("x" if self & Prot.EXEC else "-")
            + "p"
        )


def page_index(address: int) -> int:
    """Index of the page containing *address*."""
    return address // PAGE_SIZE


def page_base(address: int) -> int:
    """Base address of the page containing *address*."""
    return address & ~(PAGE_SIZE - 1)


def page_span(address: int, length: int):
    """Yield the page indices covering ``[address, address+length)``."""
    if length <= 0:
        return
    first = page_index(address)
    last = page_index(address + length - 1)
    yield from range(first, last + 1)


def round_up_pages(length: int) -> int:
    """Round *length* up to a whole number of pages (in bytes)."""
    return (length + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)
