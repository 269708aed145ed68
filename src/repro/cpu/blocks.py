"""Basic-block translation cache: record-and-replay execution units.

:func:`run_unit` is the block-mode counterpart of
:func:`repro.cpu.core.step`: it executes *up to* ``budget`` instructions for
an execution environment and returns how many retired.  The first visit to
an address **records** — it executes instruction-by-instruction through the
normal ICache fetch path while tracing the straight-line run into a
:class:`repro.cpu.icache.Block` of pre-bound closures.  Later visits
**replay** the block without re-fetching or re-decoding.

Equivalence with single-stepping is the design invariant (the evaluation
pipeline's numbers must be byte-identical with the cache on or off):

- **Recording is a trace, not a disassembly.**  Only instructions the unit
  actually executed — fetched through the same ICache the single-step path
  uses — enter a block, so a block can never contain a decode single-step
  would not have produced (this is what preserves pitfall P5's stale-decode
  and torn-patch behaviour bit-for-bit).
- **Blocks end where single-step behaviour could diverge**: at control
  transfers, ``syscall``/``sysenter``, ``HOSTCALL``, serializing
  instructions, the faulting trio (``int3``/``ud2``/``hlt``), the budget
  (scheduler-quantum) boundary, and :data:`BLOCK_MAX`.
- **A single-byte ``nop`` is a one-step block of its own.**  Its
  run-slide (:func:`repro.cpu.dispatch.slide_nops`) consumes a
  memory-dependent number of bytes, so the block caches only the decode
  of the first nop — an ordinary line with ordinary invalidation — and
  the slide re-reads live memory on every replay, exactly as
  single-stepping does.  Its successor depends on memory, so the block
  ends like an indirect branch (:data:`repro.cpu.icache.TERM_INDIRECT`).
- **Cycle charges are batched but observationally identical.**  Replay
  pre-charges ``INSTRUCTION × n`` up front; any early exit un-charges the
  overshoot *before* control leaves the unit, so every point where
  simulated code can observe the clock — the terminal syscall/hostcall of a
  block, or a fault's signal delivery — sees exactly the cycle count the
  single-step interpreter would have accumulated.
- **Retire accounting** uses ``env.unit_retired``: set to ``k + 1`` before
  instruction *k* is fetched, so the scheduler attributes a faulting
  instruction to the unit exactly as the per-step loop did (a fetch fault
  retires uncharged; an execution fault retires charged; a process exit
  leaves the final instruction uncounted).

With chaining on (:mod:`repro.cpu.engine`), a unit follows linked blocks
and counts each block's replays; at :data:`HOT_THRESHOLD` with the trace
JIT on, the hot chain starting there is compiled to a trace, which later
visits dispatch instead of the blocks.  A declined compile is not retried:
those blocks keep running chained.
"""

from __future__ import annotations

from repro.cpu.cycles import Event
from repro.cpu.dispatch import BLOCK_TERMINATORS, slide_nops
from repro.cpu.engine import form_superblock
from repro.cpu.icache import Block, TERM_END
from repro.errors import DecodeError, InvalidOpcode

_MASK64 = (1 << 64) - 1
_INSTRUCTION = Event.INSTRUCTION

#: Maximum instructions per recorded block (well under the default
#: scheduler quantum of 100, so loops still re-enter their block).
BLOCK_MAX = 64

#: Replays of a block, with the trace JIT on, before the hot chain
#: starting there is stitched into a superblock and compiled.
HOT_THRESHOLD = 16


def run_unit(env, budget: int) -> int:
    """Execute up to *budget* instructions starting at ``env.context.rip``.

    Returns the number of instructions retired (>= 1 unless an exception is
    raised).  Exceptions propagate exactly as from single-stepping, with
    ``env.unit_retired`` naming the in-unit index of the culprit.

    With a chaining-enabled :class:`repro.cpu.engine.EngineConfig` on the
    environment's icache, one unit follows the chain of cached blocks
    (running compiled traces where formed) until a unit-ending
    terminator, an uncached/invalid successor, or the budget; without
    one, a unit is exactly one block.

    A compiled trace is one replay unit: its whole INSTRUCTION charge is
    made before it runs, and the never-executed tail is un-charged on a
    guard failure, a constituent invalidation or an exception.  The trace
    sets ``env.unit_retired = total + k + 1`` before every step *k* that
    can raise (:mod:`repro.cpu.tracejit`), so the un-charge and the
    scheduler's retire attribution match the per-block path exactly.
    """
    ctx = env.context
    icache = env.icache
    blocks = icache._blocks
    block = blocks.get(ctx.rip)
    if block is None:
        return _record(env, ctx, icache, budget)
    icache.block_hits += 1
    engine = icache.engine
    if engine is None or not engine.chain:
        return _replay(env, ctx, block, budget, 0)
    trace_jit = engine.trace_jit
    charge = env.charge
    total = 0
    while True:
        sb = block.superblock
        if sb is None:
            heat = block.heat + 1
            block.heat = heat
            if heat >= HOT_THRESHOLD and trace_jit:
                sb = form_superblock(env, icache, block)
        if (sb is not None and sb.trace and sb.valid
                and sb.n_steps <= budget - total):
            icache.superblock_hits += 1
            icache.trace_hits += 1
            n = sb.n_steps
            charge(_INSTRUCTION, n)
            try:
                i = sb.trace(env, ctx, total)
            except BaseException:
                overshoot = n - (env.unit_retired - total)
                if overshoot > 0:
                    charge(_INSTRUCTION, -overshoot)
                raise
            total += i
            if i < n:
                # Early exit (guard failure / constituent invalidated):
                # un-charge the tail and hand control back.
                charge(_INSTRUCTION, -(n - i))
                return total
            if sb.tail_end:
                return total
            block = sb.blocks[-1]
        else:
            n = _replay(env, ctx, block, budget - total, total)
            total += n
            if n < len(block.steps) or block.term == TERM_END:
                return total
        if total >= budget:
            return total
        rip = ctx.rip
        nxt = block.succ
        if nxt is None or nxt.entry != rip or not nxt.valid:
            nxt = blocks.get(rip)
            if nxt is None:
                # Uncached successor: end the unit; the next unit records
                # it (with a fresh base, exactly like the unchained path).
                return total
            block.succ = nxt
            icache.chain_links += 1
        else:
            icache.chain_follows += 1
        block = nxt


def _replay(env, ctx, block: Block, budget: int, base: int) -> int:
    steps = block.steps
    n = len(steps)
    if budget < n:
        n = budget
    # Batch the whole unit's instruction charge up front; see module
    # docstring for why every observation point still matches single-step.
    env.charge(_INSTRUCTION, n)
    i = 0
    try:
        while i < n:
            step = steps[i]
            ctx.rip = step[0]
            step[1](env, ctx)
            i += 1
            if not block.valid:
                # Own store hit the block span: stop where single-step
                # would have re-fetched (possibly modified) bytes.
                break
    except BaseException:
        # Instruction i faulted mid-execution — it *was* charged by the
        # single-step path (charge precedes execution); un-charge only the
        # never-executed tail before the fault becomes observable, and
        # mark the culprit's in-unit (chain-cumulative) index for the
        # scheduler.
        env.unit_retired = base + i + 1
        overshoot = n - i - 1
        if overshoot > 0:
            env.charge(_INSTRUCTION, -overshoot)
        raise
    if i < n:
        env.charge(_INSTRUCTION, -(n - i))
    return i


def _record(env, ctx, icache, budget: int) -> int:
    entry = ctx.rip
    icache.begin_record(entry)
    steps = []
    append = steps.append
    fetch_entry = icache.fetch_entry
    mem_fetch = env.mem_fetch
    # The page map of the space executing now (execve swaps it, so bind
    # it per call); an environment without ``mem_space`` fetches through
    # mem_fetch alone.
    space = getattr(env, "mem_space", None)
    pages = None if space is None else space._fast
    charge = env.charge
    instruction = _INSTRUCTION
    # Every traced instruction is appended to steps, so executed is also
    # the block length: one bound covers the budget and BLOCK_MAX.
    limit = budget if budget < BLOCK_MAX else BLOCK_MAX
    executed = 0
    try:
        while True:
            env.unit_retired = executed + 1
            fetch_addr = ctx.rip
            try:
                _raw, insn, fn = fetch_entry(fetch_addr, mem_fetch, pages)
            except DecodeError as exc:
                raise InvalidOpcode(fetch_addr, str(exc)) from exc
            slide = fn is slide_nops
            if slide and executed:
                # A nop slide starts its own block.
                break
            next_rip = (fetch_addr + insn.length) & _MASK64
            # The recording span covers this instruction before it runs,
            # so its own store into the span dooms the recording.
            icache._rec_hi = next_rip
            ctx.rip = next_rip
            charge(instruction)
            fn(env, ctx)
            executed += 1
            append((next_rip, fn, insn))
            if slide or insn.mnemonic in BLOCK_TERMINATORS:
                break
            if executed >= limit:
                break
    except BaseException:
        icache.end_record()
        raise
    if icache.end_record() and steps:
        # The traced span survived un-invalidated: cache it.  A doomed
        # recording (own store into the span, serializing flush, execve)
        # still *executed* correctly — it just isn't worth caching.
        icache.install_block(Block(entry, steps[-1][0], steps))
    return executed
