"""Tiered execution engine: chaining, superblocks, and the trace JIT.

The basic-block translation cache (:mod:`repro.cpu.blocks`, PR 2) made a
*block* the unit of replay but still pays a dispatcher round-trip — block
lookup, heat bookkeeping, a fresh ``run_unit`` frame — per block executed.
This module adds the three tiers that remove that overhead for hot code:

1. **Block chaining** — a block ending in a direct jump, a direct call, or
   a fall-through cut caches a reference to its successor block (a
   monomorphic inline cache on ``Block.succ``); steady-state execution
   follows the chain inside one ``run_unit`` call instead of returning to
   the scheduler loop per block.  Conditional branches chain too: the edge
   caches the *last observed* successor and is re-validated against
   ``ctx.rip`` on every follow.
2. **Superblock formation** — when a block's replay count crosses
   :attr:`EngineConfig.superblock_threshold`, the hot chain starting there
   is stitched (across direct edges and last-observed conditional edges,
   ending at an indirect jump / syscall / serializing block) into one
   :class:`Superblock`: a single replay unit with **one** batched
   INSTRUCTION charge and one budget check.  Conditional edges inside the
   superblock become *guards*: if the branch goes the other way at replay
   time, the superblock exits early, un-charges the unexecuted tail, and
   the interpreter resumes at the architecturally-correct RIP.
3. **Trace compilation** — the hottest superblocks
   (:attr:`EngineConfig.jit_threshold` dispatches) are compiled by
   :mod:`repro.cpu.tracejit` into one ``exec``'d Python function with
   register/flag operations inlined and an inline-cached single-page
   memory fast path seeded from
   :meth:`repro.memory.address_space.AddressSpace.page_entry`.  Any guard
   failure or fast-path miss falls back to the interpreter's own
   primitives, so architectural behaviour is bit-identical.

Escape hatches (each disables its tier *and everything above it*,
mirroring ``REPRO_NO_BLOCK_CACHE``):

- ``REPRO_NO_CHAIN=1``    → PR 2 behaviour: one block per unit.
- ``REPRO_NO_SUPERBLOCK=1`` → chaining only.
- ``REPRO_NO_TRACE_JIT=1``  → chaining + interpreted superblocks.

Invariants (the lockstep fuzzer asserts them across all four configs):

- **Scheduler semantics**: a unit still ends at every point the block
  cache ended one *where the scheduler could act* — syscalls, hostcalls,
  serializing instructions, indirect branches, faults, and budget
  exhaustion.  Chaining only merges boundaries that were no-ops (the
  fault-injection engine clips the whole-unit budget, so insn-count
  triggers still land exactly on a unit boundary).
- **Cycle accounting**: every tier batch-charges INSTRUCTION up front and
  un-charges the unexecuted tail before any observation point, exactly
  like block replay; total sim cycles are identical across tiers.
- **Icache coherence**: superblocks doom with their constituent blocks —
  :meth:`repro.cpu.icache.ICache._drop_block` and ``flush_all`` doom every
  superblock a dropped block participates in, and chain edges are
  validated (``succ.valid``) at follow time, so page-indexed invalidation
  (including the munmap/MAP_FIXED shootdowns) unlinks chains and dooms
  superblocks in the same call that drops the lines.

Environments that expose a ``mem_space`` attribute (the process
:class:`~repro.memory.address_space.AddressSpace`) additionally promise
that their ``mem_read``/``mem_write`` are exactly
``space.read/write(addr, .., pkru=ctx.pkru)`` — the contract that lets a
compiled trace touch page bytes directly.  Environments without it never
get traces compiled (``Superblock.trace`` stays ``False``).
"""

from __future__ import annotations

import os
from typing import List, Optional

from repro.cpu.cycles import Event
from repro.cpu.icache import Block, TERM_COND, TERM_END, TERM_INDIRECT
from repro.cpu.tracejit import compile_superblock


class EngineConfig:
    """Which execution tiers are enabled, and their heat thresholds."""

    __slots__ = ("chain", "superblock", "trace_jit",
                 "superblock_threshold", "jit_threshold", "superblock_max",
                 "block_cache")

    def __init__(self, chain: bool = True, superblock: bool = True,
                 trace_jit: bool = True, superblock_threshold: int = 16,
                 jit_threshold: int = 8, superblock_max: int = 96,
                 block_cache: bool = True):
        # Tier hierarchy: superblocks are formed from chains and traces are
        # compiled from superblocks, so disabling a tier disables the ones
        # stacked on it.
        self.chain = chain
        self.superblock = chain and superblock
        self.trace_jit = chain and superblock and trace_jit
        self.superblock_threshold = superblock_threshold
        self.jit_threshold = jit_threshold
        self.superblock_max = superblock_max
        #: The basic-block translation cache the tiers sit on; off selects
        #: the reference single-step interpreter (a kernel's initial
        #: ``block_cache_enabled``).  Not part of :meth:`flags`, whose
        #: dict is written into replay bundles and stats labels.
        self.block_cache = block_cache

    @classmethod
    def from_env(cls) -> "EngineConfig":
        """The configuration the escape hatches select — the one place
        the ``REPRO_NO_*`` environment variables are read."""
        env = os.environ.get
        return cls(chain=env("REPRO_NO_CHAIN", "") != "1",
                   superblock=env("REPRO_NO_SUPERBLOCK", "") != "1",
                   trace_jit=env("REPRO_NO_TRACE_JIT", "") != "1",
                   block_cache=env("REPRO_NO_BLOCK_CACHE", "") != "1")

    def flags(self) -> dict:
        """JSON-safe tier flags (evaluation cache keys, stats labels)."""
        return {"chain": self.chain, "superblock": self.superblock,
                "trace_jit": self.trace_jit}

    def __repr__(self) -> str:
        return (f"EngineConfig(chain={self.chain}, "
                f"superblock={self.superblock}, trace_jit={self.trace_jit})")


class Superblock:
    """A hot chain of blocks flattened into one replay unit.

    ``steps`` is the concatenation of the constituent blocks' steps;
    ``guards[i]`` is the RIP the next constituent starts at when step *i*
    is a conditional branch that must go the recorded way (``None``
    everywhere else).  ``valid`` is flipped by the owning icache the
    moment any constituent block is dropped; ``trace`` is ``None`` until
    the JIT threshold, then either the compiled function or ``False``
    (compilation declined — replay stays interpreted).
    """

    __slots__ = ("entry", "blocks", "steps", "guards", "n_steps",
                 "tail_end", "valid", "trace", "hits")

    def __init__(self, blocks: List[Block]):
        self.entry = blocks[0].entry
        self.blocks = blocks
        steps = []
        guards: List[Optional[int]] = []
        for index, block in enumerate(blocks):
            steps.extend(block.steps)
            guards.extend([None] * len(block.steps))
            if index + 1 < len(blocks) and block.term == TERM_COND:
                guards[-1] = blocks[index + 1].entry
        self.steps = steps
        self.guards = guards
        self.n_steps = len(steps)
        #: True when the final constituent ends the unit (syscall,
        #: hostcall, indirect branch, serializing, faulting trio).
        self.tail_end = blocks[-1].term == TERM_END
        self.valid = True
        self.trace = None
        self.hits = 0

    def __len__(self) -> int:
        return self.n_steps


def form_superblock(icache, head: Block, engine: EngineConfig) -> Superblock:
    """Stitch the hot chain starting at *head* into a superblock.

    Follows each block's last-observed successor edge across direct and
    conditional terminators, stopping at an unit-ending block, an
    unchained/invalid edge, a revisited entry (loop closure), or
    :attr:`EngineConfig.superblock_max` steps.  Registers the superblock
    with every constituent so invalidation dooms it.
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
                or total + len(successor.steps) > engine.superblock_max):
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
    return superblock


def run_superblock(env, ctx, icache, sb: Superblock, base: int) -> int:
    """Replay *sb* (compiled trace if hot enough, else interpreted).

    *base* is the number of instructions already retired this unit; fault
    paths report ``env.unit_retired = base + <in-superblock index> + 1``
    so the scheduler's attribution matches the per-block path exactly.
    Returns the number of steps retired (``< n_steps`` on a guard failure
    or a constituent invalidation, with the overshoot un-charged).
    """
    icache.superblock_hits += 1
    trace = sb.trace
    if trace is None and icache.engine.trace_jit:
        hits = sb.hits + 1
        sb.hits = hits
        if hits >= icache.engine.jit_threshold:
            trace = compile_superblock(sb, env)
            sb.trace = trace
            if trace is not False:
                icache.traces_compiled += 1
    n = sb.n_steps
    env.charge(Event.INSTRUCTION, n)
    if trace:
        icache.trace_hits += 1
        try:
            i = trace(env, ctx, base)
        except BaseException:
            # The trace maintains env.unit_retired before every step that
            # can raise; un-charge only the never-executed tail.
            overshoot = n - (env.unit_retired - base)
            if overshoot > 0:
                env.charge(Event.INSTRUCTION, -overshoot)
            raise
    else:
        steps = sb.steps
        guards = sb.guards
        i = 0
        try:
            while i < n:
                step = steps[i]
                ctx.rip = step[0]
                step[1](env, ctx)
                i += 1
                if not sb.valid:
                    # A constituent was dropped (own store into the span,
                    # serializing flush): stop where single-step would
                    # re-fetch.
                    break
                guard = guards[i - 1]
                if guard is not None and ctx.rip != guard:
                    icache.guard_fails += 1
                    break
        except BaseException:
            env.unit_retired = base + i + 1
            overshoot = n - i - 1
            if overshoot > 0:
                env.charge(Event.INSTRUCTION, -overshoot)
            raise
    if i < n:
        env.charge(Event.INSTRUCTION, -(n - i))
    return i
