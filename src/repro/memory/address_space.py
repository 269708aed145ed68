"""A paged 64-bit virtual address space with named regions.

This is the process-memory substrate under every simulated program: the
loader maps code/data here, rewriters flip bytes here, the kernel consults it
for ``/proc/$PID/maps``, and the CPU's fetch/load/store paths go through the
permission checks (including PKU) that produce segmentation faults.

Single-page accesses are served from the **page map** (``_fast``): one
memoized ``(page, prot, pkey)`` entry per page index, evicted by every
mapping or protection change on its page and cleared by snapshots and
forks.  The CPU's compiled paths (the trace JIT, the icache's first
fetch) probe the same map directly.  Freshly mapped pages all start on
one shared zero page, copied on the first write like a snapshot page.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import MapError, ProtectionKeyFault, SegmentationFault
from repro.memory.pages import (
    PAGE_SIZE,
    Prot,
    page_base,
    page_index,
    page_span,
    round_up_pages,
)
from repro.memory.pku import PKEY_DEFAULT, PKEY_COUNT, Pkru

#: Integer protection masks for the fast paths below.  ``Prot`` is an
#: ``IntFlag`` whose ``&`` goes through the (slow) enum machinery; the
#: memoized per-page entries store the raw int so the per-access check is
#: plain integer arithmetic.
_PROT_READ = int(Prot.READ)
_PROT_WRITE = int(Prot.WRITE)
_PROT_EXEC = int(Prot.EXEC)

#: Where anonymous/library mappings start when the caller lets the kernel
#: pick an address (grows upward like Linux's mmap_base, simplified).
MMAP_BASE = 0x7F00_0000_0000

#: Stack top for the main thread.
STACK_TOP = 0x7FFF_FFFF_F000

#: The one backing page of every freshly mapped page.  ``mmap`` maps each
#: new page onto it and marks the page frozen, so the unshare paths copy
#: it before the first in-place write; it is never written itself.
_ZERO_PAGE = bytearray(PAGE_SIZE)


@dataclass
class AddressSpaceSnapshot:
    """Copy-on-write image of an :class:`AddressSpace` at one instant.

    ``pages`` maps page index → the page's backing ``bytearray`` *shared*
    with the live space: :meth:`AddressSpace.snapshot` freezes the live
    pages instead of copying them, and every mutation path unshares
    (copies) a frozen page before writing.  The snapshot therefore costs
    O(number of pages) dict entries, not O(bytes), and stays intact no
    matter what the live space does afterwards.  Plain data throughout —
    picklable for on-disk checkpoints.
    """

    pages: Dict[int, bytearray]
    prot: Dict[int, "Prot"]
    pkey: Dict[int, int]
    regions: List[Tuple[int, int, str, int]]
    mmap_cursor: int


@dataclass
class Region:
    """A named mapping, as one line of ``/proc/$PID/maps``.

    Attributes:
        start: inclusive base address.
        end: exclusive end address.
        name: pathname column (e.g. ``/usr/lib/x86_64-linux-gnu/libc.so.6``
            or ``[stack]``).
        file_offset: offset of ``start`` within the backing file, for
            file-backed mappings.
    """

    start: int
    end: int
    name: str
    file_offset: int = 0

    def contains(self, address: int) -> bool:
        return self.start <= address < self.end

    @property
    def size(self) -> int:
        return self.end - self.start


class AddressSpace:
    """Sparse paged memory with per-page protection and protection keys."""

    def __init__(self) -> None:
        self._pages: Dict[int, bytearray] = {}
        self._prot: Dict[int, Prot] = {}
        self._pkey: Dict[int, int] = {}
        self.regions: List[Region] = []
        self._mmap_cursor = MMAP_BASE
        # The page map: memoized (page, prot, pkey) per page index, the
        # single-page access fast path (see page_entry).  A mapping or
        # protection change **evicts** only the touched pages' entries, so
        # an unrelated region's mmap keeps every other memoized
        # translation.  The page bytearray is shared (not copied), so
        # in-place writes through the slow path remain visible to
        # fast-path readers; ``prot`` is stored as a raw int (see _PROT_*).
        # The dict is cleared, never replaced: compiled traces and the
        # icache bind it.
        self._fast: Dict[int, Tuple[bytearray, int, int]] = {}
        # Pages whose bytearray is shared with a snapshot, a forked
        # sibling or other fresh pages (_ZERO_PAGE).  A frozen page must
        # be unshared — copied and removed from this set — before any
        # in-place mutation; see _freeze_all.
        self._frozen: set = set()
        # region_at bisect index: region start addresses, kept in sync with
        # the (sorted, non-overlapping) regions list.
        self._region_starts: List[int] = []

    # ------------------------------------------------------------------ mapping

    def mmap(
        self,
        addr: Optional[int],
        length: int,
        prot: Prot,
        name: str = "[anon]",
        fixed: bool = False,
        pkey: int = PKEY_DEFAULT,
        file_offset: int = 0,
    ) -> int:
        """Map ``length`` bytes (rounded up to pages) and return the base.

        With ``addr=None`` the kernel chooses a free range.  With ``fixed``
        the mapping is placed exactly at ``addr`` (page-aligned), replacing
        any existing pages — MAP_FIXED semantics, which is how the trampoline
        claims virtual address 0.
        """
        if length <= 0:
            raise MapError("mmap length must be positive")
        length = round_up_pages(length)
        if addr is None:
            addr = self._find_free(length)
        else:
            if addr % PAGE_SIZE:
                raise MapError(f"mmap address {addr:#x} is not page-aligned")
            if not fixed and self._overlaps(addr, length):
                raise MapError(
                    f"mapping {addr:#x}+{length:#x} overlaps an existing one"
                )
        pages, prots, pkeys = self._pages, self._prot, self._pkey
        fast, frozen = self._fast, self._frozen
        for idx in page_span(addr, length):
            pages[idx] = _ZERO_PAGE
            prots[idx] = prot
            pkeys[idx] = pkey
            fast.pop(idx, None)
            frozen.add(idx)
        self._drop_region_overlap(addr, addr + length)
        self.regions.append(Region(addr, addr + length, name, file_offset))
        self.regions.sort(key=lambda r: r.start)
        self._reindex_regions()
        return addr

    def munmap(self, addr: int, length: int) -> None:
        """Unmap whole pages in ``[addr, addr+length)``."""
        if addr % PAGE_SIZE:
            raise MapError(f"munmap address {addr:#x} is not page-aligned")
        length = round_up_pages(length)
        for idx in page_span(addr, length):
            self._pages.pop(idx, None)
            self._prot.pop(idx, None)
            self._pkey.pop(idx, None)
            self._fast.pop(idx, None)
            self._frozen.discard(idx)
        self._drop_region_overlap(addr, addr + length)

    def mprotect(self, addr: int, length: int, prot: Prot) -> None:
        """Change protection on whole mapped pages (EINVAL-style on gaps)."""
        if addr % PAGE_SIZE:
            raise MapError(f"mprotect address {addr:#x} is not page-aligned")
        length = round_up_pages(length)
        indices = list(page_span(addr, length))
        for idx in indices:
            if idx not in self._pages:
                raise MapError(
                    f"mprotect range {addr:#x}+{length:#x} covers unmapped pages"
                )
        for idx in indices:
            self._prot[idx] = prot
            self._fast.pop(idx, None)

    def pkey_mprotect(self, addr: int, length: int, prot: Prot, pkey: int) -> None:
        """``pkey_mprotect``: mprotect + assign a protection key."""
        if not 0 <= pkey < PKEY_COUNT:
            raise MapError(f"invalid pkey {pkey}")
        self.mprotect(addr, length, prot)
        for idx in page_span(addr, round_up_pages(length)):
            self._pkey[idx] = pkey
            self._fast.pop(idx, None)

    def _find_free(self, length: int) -> int:
        addr = self._mmap_cursor
        while self._overlaps(addr, length):
            addr += round_up_pages(length) + PAGE_SIZE
        self._mmap_cursor = addr + round_up_pages(length) + PAGE_SIZE
        return addr

    def _overlaps(self, addr: int, length: int) -> bool:
        return any(idx in self._pages for idx in page_span(addr, length))

    def _drop_region_overlap(self, start: int, end: int) -> None:
        """Trim or remove region metadata overlapping ``[start, end)``."""
        kept: List[Region] = []
        for region in self.regions:
            if region.end <= start or region.start >= end:
                kept.append(region)
                continue
            if region.start < start:
                kept.append(Region(region.start, start, region.name,
                                   region.file_offset))
            if region.end > end:
                kept.append(Region(end, region.end, region.name,
                                   region.file_offset + (end - region.start)))
        self.regions = sorted(kept, key=lambda r: r.start)
        self._reindex_regions()

    def _reindex_regions(self) -> None:
        self._region_starts = [region.start for region in self.regions]

    # ------------------------------------------------------------------- access

    def is_mapped(self, addr: int, length: int = 1) -> bool:
        return all(idx in self._pages for idx in page_span(addr, length))

    def prot_at(self, addr: int) -> Prot:
        """Protection of the page containing *addr* (NONE if unmapped)."""
        return self._prot.get(page_index(addr), Prot.NONE)

    def exec_runs(self, start: int, end: int) -> List[Tuple[int, int]]:
        """Maximal runs of executable pages in the page-aligned range
        ``[start, end)``, as ``(base, length)`` pairs in address order."""
        prots = self._prot
        runs: List[Tuple[int, int]] = []
        run_start = None
        for idx in range(start // PAGE_SIZE, end // PAGE_SIZE):
            if int(prots.get(idx, 0)) & _PROT_EXEC:
                if run_start is None:
                    run_start = idx
            elif run_start is not None:
                runs.append((run_start * PAGE_SIZE,
                             (idx - run_start) * PAGE_SIZE))
                run_start = None
        if run_start is not None:
            runs.append((run_start * PAGE_SIZE,
                         end - run_start * PAGE_SIZE))
        return runs

    def pkey_at(self, addr: int) -> int:
        return self._pkey.get(page_index(addr), PKEY_DEFAULT)

    def _check(self, addr: int, length: int, access: str,
               pkru: Optional[Pkru]) -> None:
        needed = {"read": Prot.READ, "write": Prot.WRITE, "exec": Prot.EXEC}[access]
        for idx in page_span(addr, length):
            if idx not in self._pages:
                raise SegmentationFault(addr, access, reason="unmapped")
            if not self._prot[idx] & needed:
                raise SegmentationFault(addr, access, reason="permission")
            if pkru is not None and not pkru.permits(self._pkey[idx], access):
                raise ProtectionKeyFault(addr, access)

    def page_entry(self, idx: int) -> "Optional[Tuple[bytearray, int, int]]":
        """Memoized ``(page, prot_int, pkey)`` for one page, filling the
        page map (``_fast``) on a miss.

        The inline-cache seam the trace JIT and the icache's first fetch
        compile against (:mod:`repro.cpu.tracejit`,
        :meth:`repro.cpu.icache.ICache.fetch_entry`): they probe ``_fast``
        directly and take the permission-checked ``read``/``write``/
        ``fetch`` path, which fills it, on a miss.  An entry lives until a
        mapping or protection change on its page evicts it, the page
        bytearray is the live backing store, and ``prot_int``/``pkey`` are
        raw ints so a compiled trace checks permissions with integer
        arithmetic only.  PKU semantics for a data access via *pkey* are
        ``not (pkru.value >> (pkey * 2)) & 1`` for reads and ``... & 3``
        for writes (AD blocks both, WD writes).  Returns ``None`` for an
        unmapped page.
        """
        entry = self._fast.get(idx)
        if entry is None:
            page = self._pages.get(idx)
            if page is None:
                return None
            prot = int(self._prot[idx])
            if prot & _PROT_WRITE and idx in self._frozen:
                # The entry is handed out for in-place writes whenever the
                # write bit is set, so a frozen (shared) page must be
                # unshared *before* it becomes reachable through the
                # inline-cache seam.  Read-only pages keep sharing; a later
                # mprotect(+W) evicts the entry and lands back here.
                page = bytearray(page)
                self._pages[idx] = page
                self._frozen.discard(idx)
            entry = (page, prot, self._pkey[idx])
            self._fast[idx] = entry
        return entry

    def read(self, addr: int, length: int, pkru: Optional[Pkru] = None) -> bytes:
        """Data read with permission + PKU checks."""
        # Single-page fast path: the interpreter's loads are 1- or 8-byte
        # and almost never straddle a page; skip the page_span generator
        # and bytearray assembly.  Any miss or fault falls back to the
        # slow path so exception types/fields stay identical.  The PKU
        # check is pkru.permits(pkey, "read") as integer bit math.
        off = addr & (PAGE_SIZE - 1)
        if off + length <= PAGE_SIZE:
            idx = addr // PAGE_SIZE
            entry = self._fast.get(idx) or self.page_entry(idx)
            if entry is not None and entry[1] & _PROT_READ and (
                    pkru is None
                    or not (pkru.value >> (entry[2] << 1)) & 1):
                return bytes(entry[0][off:off + length])
        self._check(addr, length, "read", pkru)
        return self._copy_out(addr, length)

    def fetch(self, addr: int, length: int) -> bytes:
        """Instruction fetch: requires EXEC; **not** subject to PKU."""
        off = addr & (PAGE_SIZE - 1)
        if off + length <= PAGE_SIZE:
            idx = addr // PAGE_SIZE
            entry = self._fast.get(idx) or self.page_entry(idx)
            if entry is not None and entry[1] & _PROT_EXEC:
                return bytes(entry[0][off:off + length])
        self._check(addr, length, "exec", None)
        return self._copy_out(addr, length)

    def write(self, addr: int, data: bytes, pkru: Optional[Pkru] = None) -> None:
        """Data write with permission + PKU checks."""
        length = len(data)
        off = addr & (PAGE_SIZE - 1)
        if off + length <= PAGE_SIZE:
            idx = addr // PAGE_SIZE
            entry = self._fast.get(idx) or self.page_entry(idx)
            if entry is not None and entry[1] & _PROT_WRITE and (
                    pkru is None
                    or not (pkru.value >> (entry[2] << 1)) & 3):
                entry[0][off:off + length] = data
                return
        self._check(addr, length, "write", pkru)
        self._copy_in(addr, data)

    def read_kernel(self, addr: int, length: int) -> bytes:
        """Kernel-privilege read (loader, ptrace PEEK, /proc): only requires
        the pages to be mapped."""
        # Single-page fast path: the trampoline handlers' 8-byte return
        # address reads.  An unmapped or page-crossing range falls back.
        off = addr & (PAGE_SIZE - 1)
        if off + length <= PAGE_SIZE:
            page = self._pages.get(addr // PAGE_SIZE)
            if page is not None:
                return bytes(page[off:off + length])
        for idx in page_span(addr, length):
            if idx not in self._pages:
                raise SegmentationFault(addr, "read", reason="unmapped")
        return self._copy_out(addr, length)

    def read_cstr(self, addr: int, limit: int = 4096) -> str:
        """Kernel-privilege read of the NUL-terminated string at *addr*
        (syscall path arguments, dlopen names), decoded as latin-1.

        Reads at most *limit* bytes, one page-sized chunk at a time.  Like
        a byte-wise loop, it touches only the pages it needs and raises
        :class:`SegmentationFault` at the first unmapped byte before the
        NUL; a string without a NUL in *limit* bytes is cut there.
        """
        out = bytearray()
        cursor = addr
        while len(out) < limit:
            idx = cursor // PAGE_SIZE
            page = self._pages.get(idx)
            if page is None:
                raise SegmentationFault(cursor, "read", reason="unmapped")
            off = cursor - idx * PAGE_SIZE
            end = min(PAGE_SIZE, off + limit - len(out))
            nul = page.find(0, off, end)
            if nul >= 0:
                out += page[off:nul]
                break
            out += page[off:end]
            cursor += end - off
        return out.decode("latin-1")

    def write_kernel(self, addr: int, data: bytes) -> None:
        """Kernel-privilege write (loader, ptrace POKE, process_vm_writev)."""
        # Single-page fast path: the 1-byte selector writes of the K23 and
        # zpoline trampoline entries.  A frozen page (a fresh zero page
        # too) takes _copy_in's unshare-and-evict path.
        length = len(data)
        off = addr & (PAGE_SIZE - 1)
        if off + length <= PAGE_SIZE:
            idx = addr // PAGE_SIZE
            page = self._pages.get(idx)
            if page is not None and idx not in self._frozen:
                page[off:off + length] = data
                return
        for idx in page_span(addr, length):
            if idx not in self._pages:
                raise SegmentationFault(addr, "write", reason="unmapped")
        self._copy_in(addr, data)

    def _copy_out(self, addr: int, length: int) -> bytes:
        out = bytearray()
        remaining = length
        cursor = addr
        while remaining:
            idx = page_index(cursor)
            off = cursor - idx * PAGE_SIZE
            take = min(remaining, PAGE_SIZE - off)
            out += self._pages[idx][off:off + take]
            cursor += take
            remaining -= take
        return bytes(out)

    def _copy_in(self, addr: int, data: bytes) -> None:
        cursor = addr
        view = memoryview(data)
        frozen = self._frozen
        while view:
            idx = page_index(cursor)
            if frozen and idx in frozen:
                # Kernel-privilege writes bypass page_entry, so unshare
                # here; evict the entry because a read-only page may
                # already be memoized with the still-shared bytearray.
                self._pages[idx] = bytearray(self._pages[idx])
                frozen.discard(idx)
                self._fast.pop(idx, None)
            off = cursor - idx * PAGE_SIZE
            take = min(len(view), PAGE_SIZE - off)
            self._pages[idx][off:off + take] = view[:take]
            cursor += take
            view = view[take:]

    # -------------------------------------------------------------------- /proc

    def region_at(self, addr: int) -> Optional[Region]:
        """The named region containing *addr*, if any (bisect; regions are
        sorted and non-overlapping, so only the rightmost start <= addr can
        contain it)."""
        i = bisect_right(self._region_starts, addr) - 1
        if i >= 0:
            region = self.regions[i]
            if region.contains(addr):
                return region
        return None

    def maps(self) -> List[str]:
        """Render ``/proc/$PID/maps``-style lines, one per region."""
        lines = []
        for region in self.regions:
            prot = self._prot.get(page_index(region.start), Prot.NONE)
            lines.append(
                f"{region.start:012x}-{region.end:012x} {prot.text} "
                f"{region.file_offset:08x} 00:00 0"
                f"{' ' * 19}{region.name}"
            )
        return lines

    @property
    def mapped_bytes(self) -> int:
        """Total bytes currently backed by pages."""
        return len(self._pages) * PAGE_SIZE

    # --------------------------------------------------- snapshot / fork (CoW)

    def _freeze_all(self) -> None:
        """Mark every current page snapshot-shared and evict every
        memoized translation.

        The next access through any fast path (interpreter, icache first
        fetch, JIT inline cache) misses the page map and rebuilds through
        :meth:`page_entry`, which unshares there if it can write in place.
        """
        self._frozen.update(self._pages)
        self._fast.clear()

    def snapshot(self) -> AddressSpaceSnapshot:
        """Capture a copy-on-write image of the space (O(pages), not O(bytes)).

        The live space keeps running; mutations unshare pages lazily, so
        the returned snapshot is immutable regardless of later activity
        and can be :meth:`restore`\\ d any number of times.
        """
        snap = AddressSpaceSnapshot(
            pages=dict(self._pages),
            prot=dict(self._prot),
            pkey=dict(self._pkey),
            regions=[(r.start, r.end, r.name, r.file_offset)
                     for r in self.regions],
            mmap_cursor=self._mmap_cursor,
        )
        self._freeze_all()
        return snap

    def restore(self, snap: AddressSpaceSnapshot) -> None:
        """Reset the space to *snap*, in place (object identity preserved —
        threads and compiled traces reach memory through the owning
        ``Process``/``mem_space`` reference, which stays valid).

        The restored pages are re-frozen so the snapshot survives further
        mutation and can be restored again.  Callers must flush every
        thread's icache afterwards: decoded blocks cache code *bytes*,
        which this call may have changed wholesale.
        """
        self._pages = dict(snap.pages)
        self._prot = dict(snap.prot)
        self._pkey = dict(snap.pkey)
        self.regions = [Region(start, end, name, file_offset)
                        for start, end, name, file_offset in snap.regions]
        self._reindex_regions()
        self._mmap_cursor = snap.mmap_cursor
        self._frozen = set(self._pages)
        self._fast.clear()

    def fork_copy(self) -> "AddressSpace":
        """Copy-on-write copy for ``fork``.

        Parent and child share page bytearrays until either side writes
        (both sides' pages are frozen; mutation paths unshare).  The child
        starts with an *empty* page map of its own, and the parent's
        memoized translations are evicted by :meth:`_freeze_all`, so
        neither side holds an entry for a page the other can still write
        in place: a post-fork SMC patch on one side can never be served to
        the other (the fork-then-SMC pitfall).
        """
        self._freeze_all()
        child = AddressSpace()
        child._pages = dict(self._pages)
        child._prot = dict(self._prot)
        child._pkey = dict(self._pkey)
        child.regions = [Region(r.start, r.end, r.name, r.file_offset)
                         for r in self.regions]
        child._reindex_regions()
        child._mmap_cursor = self._mmap_cursor
        child._frozen = set(self._pages)
        return child
