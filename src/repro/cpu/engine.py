"""Tiered execution engine: block chaining and the trace JIT.

The basic-block translation cache (:mod:`repro.cpu.blocks`) made a
*block* the unit of replay but still pays a dispatcher round-trip — block
lookup, heat bookkeeping, a fresh ``run_unit`` frame — per block executed.
This module adds the two tiers that remove that overhead for hot code:

1. **Block chaining** — a block ending in a direct jump, a direct call, or
   a fall-through cut caches a reference to its successor block (a
   monomorphic inline cache on ``Block.succ``); steady-state execution
   follows the chain inside one ``run_unit`` call instead of returning to
   the scheduler loop per block.  Conditional branches chain too: the edge
   caches the *last observed* successor and is re-validated against
   ``ctx.rip`` on every follow.
2. **Hot chain → compiled trace** — when a block's replay count reaches
   :data:`repro.cpu.blocks.HOT_THRESHOLD`, the hot chain starting there is
   stitched (across direct edges and last-observed conditional edges,
   ending at an indirect jump / nop slide / syscall / serializing block,
   at most :data:`SUPERBLOCK_MAX` steps) into one :class:`Superblock` and
   compiled at once by :mod:`repro.cpu.tracejit` into one ``exec``'d Python
   function with register/flag operations inlined and an inline-cached
   single-page memory fast path over the address space's page map (see
   :meth:`repro.memory.address_space.AddressSpace.page_entry`).  A trace
   is one replay unit with **one** batched INSTRUCTION charge and one
   budget check.  Conditional edges inside it are *guards*: if the branch
   goes the other way, the trace returns early, the unexecuted tail is
   un-charged, and the interpreter resumes at the architecturally-correct
   RIP.  A declined compile leaves the blocks running chained.

Escape hatches (each disables its tier *and everything above it*):

- ``REPRO_NO_BLOCK_CACHE=1`` → the reference single-step interpreter.
- ``REPRO_NO_CHAIN=1``       → one block per unit.
- ``REPRO_NO_TRACE_JIT=1``   → chaining only.

Invariants (the lockstep fuzzer asserts them across every configuration):

- **Scheduler semantics**: a unit still ends at every point the block
  cache ended one *where the scheduler could act* — syscalls, hostcalls,
  serializing instructions, faults, and budget exhaustion — and at an
  uncached successor, which the next unit records.  Chaining only merges
  boundaries that were no-ops: a block-to-block edge, including the
  run-time edge out of an indirect branch or a nop slide, which a chain
  follows through the validated ``succ`` edge (the fault-injection
  engine clips the whole-unit budget, so insn-count triggers still land
  exactly on a unit boundary).
- **Cycle accounting**: every tier batch-charges INSTRUCTION up front and
  un-charges the unexecuted tail before any observation point, exactly
  like block replay; total sim cycles are identical across tiers.
- **Icache coherence**: superblocks doom with their constituent blocks —
  :meth:`repro.cpu.icache.ICache._drop_block` and ``flush_all`` doom every
  superblock a dropped block participates in, and chain edges are
  validated (``succ.valid``) at follow time, so page-indexed invalidation
  (including the munmap/MAP_FIXED shootdowns) unlinks chains and dooms
  traces in the same call that drops the lines.

Environments that expose a ``mem_space`` attribute (the process
:class:`~repro.memory.address_space.AddressSpace`) additionally promise
that their ``mem_read``/``mem_write`` are exactly
``space.read/write(addr, .., pkru=ctx.pkru)`` and their ``mem_fetch`` is
exactly ``space.fetch`` — the contract that lets a compiled trace touch
page bytes directly and a first fetch slice its line from the page map.
Environments without it never get traces compiled (``Superblock.trace``
is ``False``) and stay chained, and fetch through ``mem_fetch`` alone.
"""

from __future__ import annotations

import os
from typing import List

from repro.cpu.cycles import Event
from repro.cpu.icache import Block, TERM_END, TERM_INDIRECT
from repro.cpu.tracejit import compile_superblock

#: Maximum steps stitched into one superblock.
SUPERBLOCK_MAX = 96

#: The escape hatches :meth:`EngineConfig.from_env` reads.
HATCHES = ("REPRO_NO_CHAIN", "REPRO_NO_TRACE_JIT", "REPRO_NO_BLOCK_CACHE")


class EngineConfig:
    """Which execution tiers are enabled."""

    __slots__ = ("chain", "trace_jit", "block_cache")

    def __init__(self, chain: bool = True, trace_jit: bool = True,
                 block_cache: bool = True):
        # Tier hierarchy: traces are compiled from hot chains, so turning
        # chaining off turns the trace JIT off too.
        self.chain = chain
        self.trace_jit = chain and trace_jit
        #: The basic-block translation cache the tiers sit on; off selects
        #: the reference single-step interpreter (a kernel's initial
        #: ``block_cache_enabled``).  Not part of :meth:`flags`, whose
        #: dict is written into replay bundles and stats labels.
        self.block_cache = block_cache

    @classmethod
    def from_env(cls) -> "EngineConfig":
        """The configuration the escape hatches select — the one place
        the ``REPRO_NO_*`` environment variables are read.  Any other
        ``REPRO_NO_*`` variable is rejected, so a hatch of a deleted tier
        cannot silently select the full engine."""
        env = os.environ
        for name in env:
            if name.startswith("REPRO_NO_") and name not in HATCHES:
                raise ValueError(
                    f"unknown engine hatch {name}; the hatches are "
                    f"{', '.join(HATCHES)}")
        return cls(chain=env.get("REPRO_NO_CHAIN", "") != "1",
                   trace_jit=env.get("REPRO_NO_TRACE_JIT", "") != "1",
                   block_cache=env.get("REPRO_NO_BLOCK_CACHE", "") != "1")

    def flags(self) -> dict:
        """JSON-safe tier flags (evaluation cache keys, replay bundles).

        ``superblock`` equals ``trace_jit``: superblocks form only to be
        compiled.  The key stays so the dict keeps its shape."""
        return {"chain": self.chain, "superblock": self.trace_jit,
                "trace_jit": self.trace_jit}

    def tiers(self, block_cache: bool) -> str:
        """The tier label of stats and probes, e.g.
        ``"chain+superblock+trace_jit"``; ``"single-step"`` without the
        block cache, ``"block-cache"`` with no tier above it."""
        if not block_cache:
            return "single-step"
        return "+".join(name for name, on in self.flags().items()
                        if on) or "block-cache"

    def __repr__(self) -> str:
        return f"EngineConfig(chain={self.chain}, trace_jit={self.trace_jit})"


class Superblock:
    """A hot chain of blocks compiled into one replay unit.

    ``valid`` is flipped by the owning icache the moment any constituent
    block is dropped; ``trace`` is the compiled function, or ``False``
    when compilation was declined (the blocks then stay chained).
    """

    __slots__ = ("entry", "blocks", "n_steps", "tail_end", "valid", "trace")

    def __init__(self, blocks: List[Block]):
        self.entry = blocks[0].entry
        self.blocks = blocks
        self.n_steps = sum(len(block.steps) for block in blocks)
        #: True when the final constituent ends the unit (syscall,
        #: hostcall, serializing, faulting trio).
        self.tail_end = blocks[-1].term == TERM_END
        self.valid = True
        self.trace = False


def form_superblock(env, icache, head: Block) -> Superblock:
    """Stitch the hot chain starting at *head* and compile it.

    Follows each block's last-observed successor edge across direct and
    conditional terminators, stopping at an unit-ending block, an
    unchained/invalid edge, a revisited entry (loop closure), or
    :data:`SUPERBLOCK_MAX` steps.  Registers the superblock with every
    constituent so invalidation dooms it, then compiles its trace.
    """
    blocks = [head]
    seen = {head.entry}
    total = len(head.steps)
    current = head
    while current.term < TERM_INDIRECT:
        successor = current.succ
        if successor is None or not successor.valid:
            break
        if (successor.entry in seen
                or total + len(successor.steps) > SUPERBLOCK_MAX):
            break
        blocks.append(successor)
        seen.add(successor.entry)
        total += len(successor.steps)
        current = successor
    superblock = Superblock(blocks)
    for block in blocks:
        block.sbs.append(superblock)
    head.superblock = superblock
    icache.superblocks_formed += 1
    superblock.trace = compile_superblock(superblock, env)
    if superblock.trace is not False:
        icache.traces_compiled += 1
    return superblock


def run_superblock(env, ctx, icache, sb: Superblock, base: int) -> int:
    """Run *sb*'s compiled trace.

    *base* is the number of instructions already retired this unit; fault
    paths report ``env.unit_retired = base + <in-superblock index> + 1``
    so the scheduler's attribution matches the per-block path exactly.
    Returns the number of steps retired (``< n_steps`` on a guard failure
    or a constituent invalidation, with the overshoot un-charged).
    """
    icache.superblock_hits += 1
    icache.trace_hits += 1
    n = sb.n_steps
    env.charge(Event.INSTRUCTION, n)
    try:
        i = sb.trace(env, ctx, base)
    except BaseException:
        # The trace maintains env.unit_retired before every step that
        # can raise; un-charge only the never-executed tail.
        overshoot = n - (env.unit_retired - base)
        if overshoot > 0:
            env.charge(Event.INSTRUCTION, -overshoot)
        raise
    if i < n:
        env.charge(Event.INSTRUCTION, -(n - i))
    return i
