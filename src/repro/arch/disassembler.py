"""Static site discovery: the two strategies the paper contrasts.

zpoline-style rewriters must locate every ``syscall``/``sysenter`` in a code
region *statically*.  Two families of techniques exist, and both are
implemented here with their real failure modes:

- :func:`linear_sweep` / :func:`find_syscall_sites_linear` — decode
  instructions sequentially from the region start.  When the sweep hits bytes
  it cannot decode (embedded data, alignment padding of an unknown form) it
  *resyncs* by skipping a single byte, exactly like objdump-style tooling.
  Once desynchronized it can (a) sail past a genuine ``syscall`` whose bytes
  got absorbed into a phantom instruction (**P2a**: system call overlook) and
  (b) report a phantom ``syscall`` assembled out of data bytes or the tail of
  a longer instruction (**P3a**: instruction misidentification).

- :func:`find_syscall_sites_bytescan` — report *every* occurrence of the
  ``0F 05`` / ``0F 34`` byte pairs.  Exhaustive but wildly over-approximate:
  it flags partial instructions and data.  Rewriting from this set corrupts
  code and data (P3a), which is why no serious interposer uses it alone.

:func:`classify_syscall_sites` grades a candidate set against ground truth
(the assembler's marks and data spans) into the three categories of the
paper's Figure 1: valid sites, partial-instruction hits, and data hits.
"""

from __future__ import annotations

import enum
import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence, Set, Tuple

from repro.arch.decoder import decode
from repro.arch.isa import Instruction, SYSCALL_PATTERNS
from repro.errors import DecodeError

#: Code regions whose sweep result stays memoised (see DESIGN.md §3c).
LINEAR_SITES_MAX = 256


@dataclass(frozen=True)
class SweepItem:
    """One linear-sweep event: either a decoded instruction or a skipped byte.

    Attributes:
        offset: offset of the item within the scanned buffer.
        instruction: the decoded instruction, or ``None`` when the sweep had
            to resync by skipping one undecodable byte.
    """

    offset: int
    instruction: "Instruction | None"

    @property
    def is_desync(self) -> bool:
        return self.instruction is None


def linear_sweep(code: bytes, start: int = 0, end: "int | None" = None) -> Iterator[SweepItem]:
    """Sweep ``code[start:end]`` decoding instructions sequentially.

    Yields a :class:`SweepItem` per decoded instruction, and a desync item
    (``instruction=None``) for every byte skipped while resynchronizing.
    """
    limit = len(code) if end is None else end
    offset = start
    while offset < limit:
        try:
            insn = decode(code, offset)
        except DecodeError:
            yield SweepItem(offset, None)
            offset += 1
            continue
        if offset + insn.length > limit:
            yield SweepItem(offset, None)
            offset += 1
            continue
        yield SweepItem(offset, insn)
        offset += insn.length


def find_syscall_sites_linear(code: bytes) -> List[int]:
    """Offsets that a linear-sweep disassembler believes are syscall sites.

    Subject to both false negatives and false positives once the sweep
    desynchronizes inside embedded data (P2a / P3a).  Stops at trailing
    zero padding: no site starts with 00 (earlier items are unchanged).
    Each caller gets its own list.
    """
    return list(_linear_sites(bytes(code)))


@functools.lru_cache(maxsize=LINEAR_SITES_MAX)
def _linear_sites(code: bytes) -> Tuple[int, ...]:
    """:func:`find_syscall_sites_linear`, memoised on the code bytes."""
    limit = len(code.rstrip(b"\x00"))
    return tuple(item.offset for item in itertools.takewhile(
                     lambda item: item.offset < limit, linear_sweep(code))
                 if item.instruction is not None
                 and item.instruction.is_syscall_site)


def find_syscall_sites_bytescan(code: bytes) -> List[int]:
    """Every offset whose two bytes match ``0F 05`` or ``0F 34``.

    Exhaustive (no false negatives) but includes partial instructions and
    data — the over-approximation illustrated by the paper's Figure 1.
    """
    sites: List[int] = []
    for offset in range(len(code) - 1):
        if code[offset:offset + 2] in SYSCALL_PATTERNS:
            sites.append(offset)
    return sites


class SiteKind(enum.Enum):
    """Ground-truth classification of a candidate syscall site (Figure 1)."""

    VALID = "valid syscall/sysenter instruction"
    PARTIAL = "syscall opcode bytes inside another instruction"
    DATA = "data bytes resembling a syscall instruction"


def classify_syscall_sites(
    candidates: Iterable[int],
    true_sites: Iterable[int],
    data_spans: Sequence[Tuple[int, int]],
) -> List[Tuple[int, SiteKind]]:
    """Grade candidate offsets against ground truth.

    Args:
        candidates: offsets some discovery strategy proposed.
        true_sites: offsets of genuine ``syscall``/``sysenter`` instructions
            (e.g. the assembler marks recorded while building the program).
        data_spans: ``(start, end)`` ranges emitted as data.

    Returns:
        ``(offset, SiteKind)`` pairs, sorted by offset.
    """
    truth: Set[int] = set(true_sites)
    graded: List[Tuple[int, SiteKind]] = []
    for offset in sorted(set(candidates)):
        if offset in truth:
            graded.append((offset, SiteKind.VALID))
        elif any(start <= offset < end for start, end in data_spans):
            graded.append((offset, SiteKind.DATA))
        else:
            graded.append((offset, SiteKind.PARTIAL))
    return graded


def sweep_statistics(code: bytes) -> dict:
    """Summarize a sweep: counts of instructions, desync bytes, and sites.

    Useful for tests asserting that embedded data really does desynchronize
    the sweep, and for the Figure 1 harness.
    """
    decoded = 0
    desyncs = 0
    sites = 0
    for item in linear_sweep(code):
        if item.is_desync:
            desyncs += 1
        else:
            decoded += 1
            if item.instruction.is_syscall_site:
                sites += 1
    return {"decoded": decoded, "desync_bytes": desyncs, "syscall_sites": sites}
