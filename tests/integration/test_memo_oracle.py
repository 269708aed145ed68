"""Oracles for the process-wide memos (DESIGN.md "Process-wide memos").

Each memo caches a pure derivation keyed by exactly its inputs.  Every
test here fails if a memo is keyed too coarsely — if it ever hands one
input's value to another — while the memo's own hit counters show it is
actually being used:

- the offline recipe behind :func:`repro.runapi.offline_logs`;
- decoded instruction lines (:func:`repro.cpu.icache.decode_line`);
- trace code objects (``repro.cpu.tracejit._trace_code``);
- the libc, loader-stub, coreutil and stress images, and zpoline's
  linear-sweep site lists (``test_shared_images.py`` guards the images
  against in-place rewrites).
"""

import pytest

from repro import runapi
from repro.arch import disassembler
from repro.arch.decoder import DecodeError
from repro.arch.isa import Mnemonic
from repro.arch.registers import Reg
from repro.core.offline import import_logs
from repro.cpu import tracejit
from repro.cpu.engine import EngineConfig
from repro.cpu.icache import ICache, decode_line
from repro.errors import Halt
from repro.evaluation.runner import MACRO_BY_KEY, measure_micro_cycles
from repro.faultinject import conformance
from repro.interposers.registry import REGISTRY
from repro.kernel import Kernel
from repro.loader import libc, linker
from repro.memory import Prot
from repro.workloads.coreutils import coreutil_image
from repro.workloads.stress import stress_image
from tests.cpu.test_engine import build, hot

MECHANISMS = REGISTRY.names()

MEMOS = (runapi._offline_recipe, decode_line, tracejit._trace_code,
         libc._assemble_libc, linker._assemble_stub, coreutil_image,
         stress_image, disassembler._linear_sites)


def clear_memos():
    for memo in MEMOS:
        memo.cache_clear()


# ------------------------------------------- (a) results ignore memo state


def cells(mechanism: str, micro_seed: int, cell_seed: int,
          workload: str = "ls"):
    """One micro cell and one fault-injected conformance cell."""
    micro = measure_micro_cycles(mechanism, iterations_low=20,
                                 iterations_high=60, seed=micro_seed)
    observation = conformance.run_cell(mechanism, workload, cell_seed)
    return micro, observation


@pytest.fixture(scope="module")
def cold_and_warm():
    """Every mechanism's cells from empty memos, then again after other
    cells, workloads and seeds filled them."""
    cold = {}
    for mechanism in MECHANISMS:
        clear_memos()
        cold[mechanism] = cells(mechanism, 20, 1)
    clear_memos()
    for mechanism in MECHANISMS:
        cells(mechanism, 21, 2, workload="cat")
    hits = {memo: memo.cache_info().hits for memo in MEMOS}
    warm = {mechanism: cells(mechanism, 20, 1) for mechanism in MECHANISMS}
    reused = {f"{memo.__module__}.{memo.__qualname__}":
              memo.cache_info().hits - hits[memo] for memo in MEMOS}
    yield cold, warm, reused
    clear_memos()


@pytest.mark.parametrize("mechanism", MECHANISMS)
def test_cells_identical_from_empty_and_prefilled_memos(cold_and_warm,
                                                        mechanism):
    cold, warm, _reused = cold_and_warm
    assert warm[mechanism] == cold[mechanism]


def test_prefilled_pass_reuses_every_exercised_memo(cold_and_warm):
    _cold, _warm, reused = cold_and_warm
    assert reused["repro.runapi._offline_recipe"] > 0
    assert reused["repro.cpu.icache.decode_line"] > 0
    for memo in ("repro.loader.libc._assemble_libc",
                 "repro.loader.linker._assemble_stub",
                 "repro.workloads.coreutils.coreutil_image",
                 "repro.workloads.stress.stress_image",
                 "repro.arch.disassembler._linear_sites"):
        assert reused[memo] > 0, memo
    engine = EngineConfig.from_env()  # the suite also runs under hatches
    if engine.block_cache and engine.trace_jit:
        assert reused["repro.cpu.tracejit._trace_code"] > 0


# ---------------------------------------------- (b) trace code, not traces


def store_loop(a):
    """A hot loop whose body stores mid-superblock, so its trace carries
    an ``if not _sb.valid`` bail after the store."""
    a.mov_ri(Reg.RCX, 10_000)
    a.label("loop")
    a.inc(Reg.RAX)
    a.store(Reg.RDI, Reg.RAX)
    a.inc(Reg.RBX)
    a.dec(Reg.RCX)
    a.jne("loop")
    a.hlt()


def compiled_superblock(env):
    env.run(10)
    return next(block.superblock for block in env.icache._blocks.values()
                if block.superblock is not None
                and block.superblock.trace not in (None, False))


@hot()
def test_same_source_shares_code_but_not_the_function():
    tracejit._trace_code.cache_clear()
    first = build(store_loop, engine=EngineConfig())
    second = build(store_loop, engine=EngineConfig())
    sb1, sb2 = compiled_superblock(first), compiled_superblock(second)
    assert sb1.trace.__source__ == sb2.trace.__source__
    assert sb1.trace.__code__ is sb2.trace.__code__
    assert tracejit._trace_code.cache_info().hits >= 1
    assert sb1.trace is not sb2.trace
    assert sb1.trace.__globals__["_sb"] is sb1
    assert sb2.trace.__globals__["_sb"] is sb2


@hot()
def test_dooming_one_superblock_bails_only_its_own_trace():
    first = build(store_loop, engine=EngineConfig())
    second = build(store_loop, engine=EngineConfig())
    sb1, sb2 = compiled_superblock(first), compiled_superblock(second)
    trace1 = sb1.trace
    first.icache.invalidate_range(sb1.entry, 1)
    assert not sb1.valid and sb2.valid
    # A doomed superblock drops its trace.  A trace already running when
    # its superblock is doomed stops right after its store; the live one
    # runs through to its closing branch.
    assert sb1.trace is False and trace1.__globals__["_sb"] is sb1
    assert trace1(first, first.context, 0) == 2
    assert sb2.trace(second, second.context, 0) == sb2.n_steps


# ------------------------------------------------------ (c) decoded lines


def make_memory(initial: bytes):
    buf = bytearray(initial)

    def read(addr, n):
        return bytes(buf[addr:addr + n])

    return buf, read


SYSCALL_LINE = b"\x0f\x05" + b"\x90" * 14
TORN_LINE = b"\xff\x05" + b"\x90" * 14
PATCHED_LINE = b"\xff\xd0" + b"\x90" * 14


def test_decode_error_is_never_memoised():
    decode_line.cache_clear()
    for _ in range(2):
        with pytest.raises(DecodeError):
            decode_line(TORN_LINE)
    assert decode_line.cache_info().currsize == 0
    assert decode_line.cache_info().misses == 2


def test_memoised_line_is_keyed_by_every_fetched_byte():
    decode_line.cache_clear()
    imm = b"\x48\xb8" + bytes(range(1, 9)) + b"\x90" * 6
    other = b"\x48\xb8" + bytes(range(2, 10)) + b"\x90" * 6
    assert decode_line(imm)[1].imm != decode_line(other)[1].imm
    assert decode_line(imm) is decode_line(imm)


def test_safe_rewrite_decodes_new_bytes_on_every_core():
    """A zpoline/K23 patch: the writer invalidates every core, and each
    re-fetch decodes the patched bytes even with the old and new lines
    both memoised."""
    decode_line(SYSCALL_LINE)
    decode_line(PATCHED_LINE)
    buf, read = make_memory(SYSCALL_LINE)
    cores = (ICache(0), ICache(1))
    for core in cores:
        assert core.fetch(0, read).mnemonic is Mnemonic.SYSCALL
    buf[0:2] = b"\xff\xd0"
    for core in cores:
        core.invalidate_range(0, 2)
        assert core.fetch(0, read).mnemonic is Mnemonic.CALL_REG
    assert ICache(2).fetch(0, read).mnemonic is Mnemonic.CALL_REG


def test_torn_patch_keeps_p5_stale_and_torn_decodes():
    """lazypoline's two-store patch: the writer sees the torn encoding
    fault between the stores, a sibling keeps its stale line, and a core
    that fetches afresh sees whatever memory holds."""
    decode_line(SYSCALL_LINE)
    decode_line(PATCHED_LINE)
    buf, read = make_memory(SYSCALL_LINE)
    writer, sibling = ICache(0), ICache(1)
    writer.fetch(0, read)
    sibling.fetch(0, read)
    buf[0] = 0xFF
    writer.invalidate_range(0, 2)
    for _ in range(2):
        with pytest.raises(DecodeError):
            writer.fetch(0, read)
    buf[1] = 0xD0
    writer.invalidate_range(0, 2)
    assert writer.fetch(0, read).mnemonic is Mnemonic.CALL_REG
    assert sibling.fetch(0, read).mnemonic is Mnemonic.SYSCALL  # stale
    assert ICache(2).fetch(0, read).mnemonic is Mnemonic.CALL_REG


@hot()
def test_self_modifying_loop_redecodes_every_store():
    """Through the block and trace tiers: a loop that rewrites its own
    immediate each trip observes every new value, whether its windows
    are memoised or not."""
    def writer(a):
        a.mov_ri(Reg.RCX, 40)
        a.label("loop")
        a.label("imm")
        a.mov_ri(Reg.RAX, 0, width=64)  # 48 b8 imm64: immediate at +2
        a.add_rr(Reg.RBX, Reg.RAX)
        a.lea_rip_label(Reg.RSI, "imm")
        a.add_ri(Reg.RSI, 2)
        a.store(Reg.RSI, Reg.RCX)
        a.dec(Reg.RCX)
        a.jne("loop")
        a.hlt()

    def final_rbx():
        env = build(writer, engine=EngineConfig(),
                    code_prot=Prot.READ | Prot.WRITE | Prot.EXEC)
        with pytest.raises(Halt):
            env.run(10_000)
        return env.context.get(Reg.RBX)

    decode_line.cache_clear()
    cold = final_rbx()
    warm = final_rbx()  # every window now memoised
    assert cold == warm == sum(range(2, 41))


# ----------------------------------------------------- (d) offline recipes


def test_recipe_key_drops_only_the_run_length():
    """Table 5's 300- and 1500-iteration cells, the conformance stress
    cells and a param-less caller all share one offline run."""
    runapi._offline_recipe.cache_clear()
    logs = runapi.offline_logs("stress", (("iterations", 300),))
    assert runapi.offline_logs("stress", (("iterations", 1500),)) is logs
    assert runapi.offline_logs("stress") is logs
    sqlite = runapi.offline_logs("sqlite", (("transactions", 20),))
    assert runapi.offline_logs("sqlite", (("transactions", 120),)) is sqlite
    assert runapi._offline_recipe.cache_info().currsize == 2


def test_runapi_recipe_keyed_by_every_input():
    runapi._offline_recipe.cache_clear()
    redis = runapi.offline_logs("redis", (("io_threads", 1),))
    variants = [runapi.offline_logs("redis", (("io_threads", 6),)),
                runapi.offline_logs("redis", (("io_threads", 1),
                                              ("multiconn", 1))),
                runapi.offline_logs("sqlite"),
                runapi.offline_logs("cat")]
    assert all(logs is not redis for logs in variants)
    assert runapi._offline_recipe.cache_info().currsize == 5
    # multiconn builds a different binary, and each program logs its own
    # sites: a key that dropped either input would hand out wrong logs.
    assert variants[1] != redis
    assert set(variants[2]) != set(variants[3]) != set(redis)
    assert runapi.offline_logs("redis", (("io_threads", 1),)) is redis


def test_macro_recipe_keyed_by_row_and_seed():
    """Each Table 6 row gets its own logs, and every seed of a row
    shares them: sites are logged as (region, offset), so the seed is
    not part of the key."""
    runapi._offline_recipe.cache_clear()
    rows = [MACRO_BY_KEY[key] for key in ("redis-1t", "redis-6t", "sqlite")]
    logs = [runapi.offline_logs(row.workload, row.params) for row in rows]
    assert logs[1] is not logs[0]
    assert set(logs[2]) != set(logs[0])
    assert runapi._offline_recipe.cache_info().currsize == 3
    redis = rows[0]
    hits = runapi._offline_recipe.cache_info().hits
    for seed in (520, 521):
        runapi.boot(runapi.RunConfig(
            "K23-default", redis.workload, seed=seed, aslr=True,
            params=redis.params, connections=redis.connections))
    info = runapi._offline_recipe.cache_info()
    assert info.currsize == 3
    assert info.hits == hits + 2
    assert runapi.offline_logs(redis.workload, redis.params) is logs[0]


def test_conformance_recipe_keyed_by_workload():
    runapi._offline_recipe.cache_clear()
    logs = {workload: runapi.offline_logs(workload)
            for workload in conformance.WORKLOADS}
    assert runapi._offline_recipe.cache_info().currsize == \
        len(conformance.WORKLOADS)
    assert set(logs["stress"]) != set(logs["cat"])
    # The stress cells' run length is dropped from the key, so they
    # reuse the param-less entry.
    assert runapi.offline_logs("stress", (
        ("iterations", conformance.STRESS_ITERATIONS),)) is logs["stress"]
    assert runapi._offline_recipe.cache_info().currsize == \
        len(conformance.WORKLOADS)


def test_import_logs_leaves_the_memoised_logs_unchanged():
    logs = runapi.offline_logs("stress")
    before = dict(logs)
    for seed in (1, 2):
        import_logs(Kernel(seed=seed), logs)
    assert logs == before
    assert runapi.offline_logs("stress") is logs
    with pytest.raises(TypeError):
        logs["/usr/bin/other"] = ""  # the memoised value is read-only


# ------------------------------------------------- (e) linear-sweep sites


def test_linear_sites_hand_each_caller_its_own_list():
    """The sweep is memoised on the code bytes, but a caller that edits
    the list it got back cannot change what the next caller sees."""
    disassembler._linear_sites.cache_clear()
    code = libc.build_libc(Kernel(seed=1)).blob
    first = disassembler.find_syscall_sites_linear(code)
    expected = list(first)
    first.append(-1)
    first[0] = -2
    second = disassembler.find_syscall_sites_linear(code)
    assert second == expected and second is not first
    assert disassembler.find_syscall_sites_linear(bytearray(code)) == expected
    info = disassembler._linear_sites.cache_info()
    assert (info.hits, info.misses) == (2, 1)

