"""Per-core instruction cache with explicit-invalidation semantics.

x86 keeps the instruction cache coherent with *local* stores, but
cross-modifying code (thread A patches bytes thread B is executing) is only
architecturally safe if the writer uses a proper protocol and the executor
serializes.  lazypoline's rewriter does neither (pitfall P5): it stores the
two patch bytes non-atomically and never serializes other cores, so a core
that already decoded the old instruction may keep executing it, or may fetch
a *torn* half-patched encoding.

This cache models that hazard precisely:

- each core caches decoded instructions by address;
- stores by the *same* core invalidate its own lines (x86 local coherence);
- stores by *other* cores leave the cache stale unless the writer invalidates
  every core's cache (the "icache flush / shootdown" a correct rewriter
  performs) or the executing core runs a serializing instruction
  (``cpuid``/``mfence`` in the SimX86 subset).

The cache is also the home of the **basic-block translation cache**
(:mod:`repro.cpu.blocks`).  A :class:`Block` is a straight-line run of
already-executed instructions replayed as pre-bound closures.  The coherence
invariant that keeps block execution byte-identical to single-stepping is:

    *a live block implies every ICache line it was recorded from is live
    and unchanged* —

because blocks are recorded strictly from lines this cache served (never by
decoding ahead), and every invalidation path (:meth:`invalidate_range`,
:meth:`flush_all`) drops blocks overlapping the invalidated span in the same
call that drops the lines.  A store that would leave a single-step core
executing stale decodes leaves the block cache executing the *same* stale
decodes; a store that invalidates lines kills the blocks too.

Lines and blocks are indexed by page so per-store invalidation inspects only
candidates on the written pages instead of scanning every cached entry.  An
entry that straddles a page end is indexed on every page it covers, so a
store to any of them finds it.

A line's first fetch reads the environment's page map when it has one
(:meth:`ICache.fetch_entry`): a window inside one executable page is
sliced straight from the memoized page entry, the same bytes the
permission-checked fetch returns.  Hits, misses and faults are counted and
raised exactly as through the checked fetch.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Optional, Set, Tuple

from repro.arch.decoder import decode
from repro.arch.isa import Instruction, Mnemonic
from repro.cpu.dispatch import (
    BLOCK_TERMINATORS, Executor, compile_insn, slide_nops)
from repro.errors import ProtectionKeyFault, SegmentationFault
from repro.memory.pages import PAGE_SHIFT, PAGE_SIZE, Prot

#: Maximum bytes one line caches (longest SimX86 instruction is 10 bytes).
LINE_SPAN = 16

#: A cached line: the raw bytes the decode consumed, the decoded
#: instruction, and its compiled executor closure.
Line = Tuple[bytes, Instruction, Executor]

#: Last page offset at which a full line still fits in its page.
_LAST_IN_PAGE = PAGE_SIZE - LINE_SPAN

_PROT_EXEC = int(Prot.EXEC)

#: Bound on the process-wide decoded-line memo (:func:`decode_line`); the
#: programs of a full evaluation run fetch a few thousand distinct windows.
DECODED_LINES_MAX = 1 << 14

#: How a block ends, for the chaining tier (:mod:`repro.cpu.engine`):
#: a statically-known successor (direct jump/call, fall-through cut, or
#: a conditional branch, whose chain edge caches the last-observed side),
#: an indirect branch or a nop slide (successor computed at run time —
#: chains follow it through the validated ``succ`` edge, but superblock
#: formation stops),
#: or a unit-ending terminator (syscall, hostcall, serializing, faulting
#: trio) after which the scheduler must get control back.
TERM_DIRECT = 0
TERM_INDIRECT = 1
TERM_END = 2


def _index_span(index: Dict[int, Set[int]], key: int, start: int,
                end: int) -> None:
    """Add *key* to the page index of every page ``[start, end)`` covers.

    Shifts and one dict probe per page: this runs for every line a core
    fetches first and every block it records.
    """
    page = start >> PAGE_SHIFT
    last = (end - 1) >> PAGE_SHIFT
    while page <= last:
        entries = index.get(page)
        if entries is None:
            index[page] = {key}
        else:
            entries.add(key)
        page += 1


def _unindex_span(index: Dict[int, Set[int]], key: int, start: int,
                  end: int) -> None:
    """Remove *key* from the pages :func:`_index_span` put it on."""
    page = start >> PAGE_SHIFT
    last = (end - 1) >> PAGE_SHIFT
    while page <= last:
        entries = index.get(page)
        if entries is not None:
            entries.discard(key)
            if not entries:
                del index[page]
        page += 1


@functools.lru_cache(maxsize=DECODED_LINES_MAX)
def decode_line(raw: bytes) -> Line:
    """Decode and compile the instruction at the start of *raw*.

    A pure function of the fetched bytes — :func:`decode` reads nothing
    else and the executors are stateless closures — so it is memoised per
    process and one line is shared, read-only, by every core of every
    kernel that fetches the same bytes.  Only the decode is shared: each
    :class:`ICache` still caches lines *per address* and invalidates them
    as before, so stale and torn decodes (P5) are unchanged.  A
    :class:`~repro.errors.DecodeError` propagates and is never memoised.
    """
    insn = decode(raw, 0)
    return raw[: insn.length], insn, compile_insn(insn)


class Block:
    """A cached straight-line run of compiled instructions.

    ``steps[i]`` is ``(next_rip, fn, insn)`` — the post-advance RIP and the
    executor for the *i*-th instruction of the run.  ``valid`` is flipped by
    the owning cache's invalidation paths; replay checks it between
    instructions so a block self-invalidated by its own store stops exactly
    where single-stepping would have re-fetched.

    The chaining and trace-JIT tiers hang their bookkeeping here: ``succ``
    is a monomorphic inline cache of the last-observed successor block
    (validated against ``ctx.rip`` and ``succ.valid`` at follow time, so a
    stale edge degrades to a dictionary lookup, never to wrong execution);
    ``heat`` counts replays toward compiling the hot chain headed here;
    ``superblock`` is that chain's superblock (``None`` until formed);
    ``sbs`` lists every superblock this block participates in, so
    dropping the block dooms them all.
    """

    __slots__ = ("entry", "end", "steps", "valid",
                 "heat", "succ", "superblock", "sbs", "term")

    def __init__(self, entry: int, end: int,
                 steps: List[Tuple[int, Executor, Instruction]]):
        self.entry = entry
        self.end = end          # exclusive: entry + sum of lengths
        self.steps = steps
        self.valid = True
        self.heat = 0
        self.succ: Optional["Block"] = None
        self.superblock = None
        self.sbs: list = []
        _next_rip, fn, insn = steps[-1]
        mnemonic = insn.mnemonic
        if (mnemonic is Mnemonic.JCC_REL or mnemonic is Mnemonic.JMP_REL
                or mnemonic is Mnemonic.CALL_REL):
            self.term = TERM_DIRECT
        elif (mnemonic is Mnemonic.RET or mnemonic is Mnemonic.JMP_REG
              or mnemonic is Mnemonic.CALL_REG or fn is slide_nops):
            # A nop slide's landing depends on memory, like an indirect
            # branch's target on a register.
            self.term = TERM_INDIRECT
        elif mnemonic in BLOCK_TERMINATORS:
            self.term = TERM_END
        else:
            self.term = TERM_DIRECT  # fall-through cut (budget/BLOCK_MAX)

    def __len__(self) -> int:
        return len(self.steps)


class ICache:
    """Decoded-instruction cache (and block cache) for one core.

    *engine* is the :class:`repro.cpu.engine.EngineConfig` selecting the
    chaining and trace-JIT tiers; ``None`` (the default, used by unit-test
    environments) runs the plain one-block-per-unit path.
    """

    def __init__(self, core_id: int = 0, engine=None):
        self.core_id = core_id
        self.engine = engine
        self._lines: Dict[int, Line] = {}
        self._line_pages: Dict[int, Set[int]] = {}
        self._blocks: Dict[int, Block] = {}
        self._blocks_by_page: Dict[int, Set[int]] = {}
        # In-progress block recording span (see repro.cpu.blocks): a store
        # or flush overlapping it dooms the recording so a block is never
        # installed over bytes that changed while it was being traced.
        self._rec_active = False
        self._rec_lo = 0
        self._rec_hi = 0
        self._rec_doomed = False
        self.hits = 0
        self.misses = 0
        # Units that started on a cached block (:func:`run_unit
        # <repro.cpu.blocks.run_unit>` probes ``_blocks`` directly).
        self.block_hits = 0
        self.block_installs = 0
        # Engine-tier counters (repro.cpu.engine / repro.cpu.tracejit).
        self.chain_links = 0
        self.chain_follows = 0
        self.superblocks_formed = 0
        self.superblock_hits = 0
        self.traces_compiled = 0
        self.trace_hits = 0
        self.guard_fails = 0
        self.invalidation_unlinks = 0

    # -- decoded-line interface ------------------------------------------------

    def fetch(self, address: int, read_bytes) -> Instruction:
        """Return the instruction at *address*.

        ``read_bytes(addr, n)`` performs the actual (permission-checked)
        memory fetch on a miss.  On a hit the cached decode is returned
        without touching memory — stale bytes and all.
        """
        return self.fetch_entry(address, read_bytes)[1]

    def fetch_entry(self, address: int, read_bytes, pages=None) -> Line:
        """Like :meth:`fetch`, returning the whole ``(raw, insn, fn)`` line.

        *pages* is the environment's page map
        (:attr:`repro.memory.address_space.AddressSpace._fast`, for an
        environment whose ``mem_fetch`` is that space's ``fetch``).  A
        line window inside one page whose memoized entry allows EXEC is
        sliced straight from the entry — exactly what ``read_bytes``
        would return, since a fetch is not subject to PKU.  Everything
        else (the last ``LINE_SPAN - 1`` bytes of a page, a page without
        an entry, no page map) takes ``read_bytes``, so faults are the
        ones it raises.
        """
        line = self._lines.get(address)
        if line is not None:
            self.hits += 1
            return line
        self.misses += 1
        off = address & (PAGE_SIZE - 1)
        if pages is not None and off <= _LAST_IN_PAGE:
            page = address >> PAGE_SHIFT
            entry = pages.get(page)
            if entry is not None and entry[1] & _PROT_EXEC:
                line = decode_line(bytes(entry[0][off:off + LINE_SPAN]))
                self._lines[address] = line
                # The window, hence the line, stays on this page.
                entries = self._line_pages.get(page)
                if entries is None:
                    self._line_pages[page] = {address}
                else:
                    entries.add(address)
                return line
        raw = None
        fault = None
        # A full line may cross into an unmapped page even though the
        # instruction itself fits (e.g. the tail of the trampoline page);
        # degrade to shorter reads before giving up.
        for span in (LINE_SPAN, 10, 5, 2, 1):
            try:
                raw = read_bytes(address, span)
                break
            except (SegmentationFault, ProtectionKeyFault) as exc:
                fault = exc
        if raw is None:
            raise fault
        line = decode_line(raw)
        self._lines[address] = line
        _index_span(self._line_pages, address, address,
                    address + len(line[0]))
        return line

    # -- block interface -------------------------------------------------------

    def install_block(self, block: Block) -> None:
        entry = block.entry
        old = self._blocks.get(entry)
        if old is not None:
            self._drop_block(old)
        self._blocks[entry] = block
        _index_span(self._blocks_by_page, entry, entry, block.end)
        self.block_installs += 1

    def _drop_block(self, block: Block) -> None:
        block.valid = False
        if block.succ is not None or block.heat:
            # The block participated in chaining: its outgoing edge dies
            # here and every incoming edge is rejected at follow time by
            # the ``succ.valid`` check.
            self.invalidation_unlinks += 1
        block.succ = None
        if block.sbs:
            self._doom_superblocks(block)
        entry = block.entry
        if self._blocks.get(entry) is block:
            del self._blocks[entry]
        _unindex_span(self._blocks_by_page, entry, entry, block.end)

    def _doom_superblocks(self, block: Block) -> None:
        """Invalidate every superblock *block* participates in.

        The doomed superblock's head becomes eligible for re-formation and
        re-compilation (after re-heating — a page under repeated patching
        must not thrash the trace compiler), and the other constituents
        forget the doomed superblock so the membership lists stay small.
        The doomed superblock drops its trace, whose globals hold the
        superblock, so reference counting frees both.
        """
        for sb in block.sbs:
            if not sb.valid:
                continue
            sb.valid = False
            sb.trace = False
            head = sb.blocks[0]
            head.superblock = None
            head.heat = 0
            for member in sb.blocks:
                if member is not block and sb in member.sbs:
                    member.sbs.remove(sb)
        block.sbs = []

    # Recording span: repro.cpu.blocks brackets first-execution tracing with
    # begin/end so invalidations racing the trace doom the block-in-progress.
    # The recorder advances ``_rec_hi`` itself, before each traced
    # instruction executes (a plain store: it runs once per instruction).

    def begin_record(self, start: int) -> None:
        self._rec_active = True
        self._rec_lo = start
        self._rec_hi = start
        self._rec_doomed = False

    def end_record(self) -> bool:
        """Stop recording; returns True if the span survived untouched."""
        self._rec_active = False
        return not self._rec_doomed

    # -- invalidation protocol -------------------------------------------------

    def invalidate_range(self, start: int, length: int) -> None:
        """Drop lines and blocks overlapping ``[start, start+length)``.

        Called automatically for same-core stores, and by correct rewriters
        (zpoline, K23) for every core after patching.

        A line is at most ``LINE_SPAN`` bytes, so only lines starting in
        ``[start - LINE_SPAN + 1, end)`` can overlap the range.  A short
        rewrite probes those start addresses; a range with fewer cached
        lines on its pages than that scans the pages' lines instead.
        """
        end = start + length
        if self._rec_active and start < self._rec_hi and self._rec_lo < end:
            self._rec_doomed = True
        lines, line_pages = self._lines, self._line_pages
        pages = range(start >> PAGE_SHIFT, ((end - 1) >> PAGE_SHIFT) + 1)
        first = start - LINE_SPAN + 1
        if end - first < sum(len(line_pages.get(page, ()))
                             for page in pages):
            doomed = [addr for addr in range(first, end)
                      if addr in lines
                      and start < addr + len(lines[addr][0])]
        else:
            doomed = {addr for page in pages
                      for addr in line_pages.get(page, ())
                      if addr < end and start < addr + len(lines[addr][0])}
        for addr in doomed:
            raw = lines.pop(addr)[0]
            _unindex_span(line_pages, addr, addr, addr + len(raw))
        for page in pages:
            entries = self._blocks_by_page.get(page)
            if entries:
                for entry in [e for e in entries
                              if e < end and start < self._blocks[e].end]:
                    self._drop_block(self._blocks[entry])

    def flush_all(self) -> None:
        """Serializing instruction executed on this core (cpuid/mfence)."""
        self._lines.clear()
        self._line_pages.clear()
        for block in self._blocks.values():
            block.valid = False
            block.succ = None
            if block.sbs:
                self._doom_superblocks(block)
        self._blocks.clear()
        self._blocks_by_page.clear()
        if self._rec_active:
            self._rec_doomed = True

    def __len__(self) -> int:
        return len(self._lines)
