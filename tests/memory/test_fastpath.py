"""Single-page fast path in :class:`AddressSpace`: equivalence, eviction
of memoized page entries, and the shared zero page behind fresh mappings.

The fast path memoizes (page, prot, pkey) per page index in the page map
(``_fast``) and serves any access that stays inside one page; everything
else — and every *fault* — falls through to the original ``_check`` +
copy path.  These tests pin the contract: identical bytes, identical
exception types and fields, and correct eviction after every mapping
mutation (``mprotect``/``pkey_mprotect``/``munmap``/``mmap``) and every
unshare.  Fresh pages start out on one shared zero page, which no write
path may ever change.
"""

import pytest

from repro.arch.registers import Reg
from repro.cpu.engine import EngineConfig
from repro.errors import ProtectionKeyFault, SegmentationFault
from repro.memory import PAGE_SIZE, Pkru, Prot
from repro.memory import address_space
from repro.memory.address_space import AddressSpace
from tests.cpu.test_engine import DATA_BASE, build, hot, run_to_halt

BASE = 0x40_0000


def make_space(prot=Prot.READ | Prot.WRITE, pages=4) -> AddressSpace:
    space = AddressSpace()
    space.mmap(BASE, pages * PAGE_SIZE, prot, name="t", fixed=True)
    return space


# ------------------------------------------------------------- equivalence


def test_in_page_read_write_roundtrip():
    space = make_space()
    payload = bytes(range(64))
    space.write(BASE + 100, payload)
    assert space.read(BASE + 100, 64) == payload
    # Repeat (now served from the memoized entry) — identical.
    assert space.read(BASE + 100, 64) == payload


def test_cross_page_access_uses_slow_path_and_matches():
    space = make_space()
    straddle = BASE + PAGE_SIZE - 3
    payload = b"ABCDEFGH"                 # 3 bytes in page 0, 5 in page 1
    space.write(straddle, payload)
    assert space.read(straddle, 8) == payload
    # The same bytes are visible through two in-page (fast) reads.
    assert space.read(straddle, 3) + space.read(straddle + 3, 5) == payload


def test_fast_write_is_visible_to_kernel_copies():
    # The fast path mutates the page bytearray in place; the slow copy
    # paths must observe it (shared identity, not a snapshot).
    space = make_space()
    space.write(BASE + 8, b"\x5a" * 8)
    assert space.read_kernel(BASE + 8, 8) == b"\x5a" * 8
    space.write_kernel(BASE + 16, b"\xa5" * 8)
    assert space.read(BASE + 16, 8) == b"\xa5" * 8


def test_fetch_requires_exec_and_ignores_pku():
    space = make_space(prot=Prot.READ | Prot.EXEC)
    space.write_kernel(BASE, b"\x90" * 16)
    pkru = Pkru()
    pkru.set_access_disabled(3, True)
    space.pkey_mprotect(BASE, PAGE_SIZE, Prot.READ | Prot.EXEC, pkey=3)
    # Data reads through key 3 fault; instruction fetch does not (XOM).
    with pytest.raises(ProtectionKeyFault):
        space.read(BASE, 4, pkru=pkru)
    assert space.fetch(BASE, 4) == b"\x90" * 4


# ------------------------------------------------------------ fault parity


def test_unmapped_fault_fields_match_slow_path():
    space = make_space()
    for length in (1, 8, PAGE_SIZE + 8):     # fast-sized and straddling
        with pytest.raises(SegmentationFault) as err:
            space.read(0x9999_0000, length)
        assert err.value.address == 0x9999_0000
        assert err.value.access == "read"
        assert err.value.reason == "unmapped"


def test_permission_fault_fields_match_slow_path():
    space = make_space(prot=Prot.READ)
    with pytest.raises(SegmentationFault) as err:
        space.write(BASE + 5, b"x")
    assert err.value.access == "write"
    assert err.value.reason == "permission"
    with pytest.raises(SegmentationFault) as err:
        space.fetch(BASE, 1)
    assert err.value.access == "exec"
    assert err.value.reason == "permission"


def test_pkey_fault_raised_for_in_page_access():
    space = make_space()
    space.pkey_mprotect(BASE, PAGE_SIZE, Prot.READ | Prot.WRITE, pkey=5)
    pkru = Pkru()
    pkru.set_write_disabled(5, True)
    assert space.read(BASE, 8, pkru=pkru) == b"\x00" * 8   # reads still OK
    with pytest.raises(ProtectionKeyFault) as err:
        space.write(BASE, b"x", pkru=pkru)
    assert err.value.access == "write"
    assert err.value.reason == "pkey"


# ----------------------------------------------------------- invalidation


def test_mprotect_invalidates_memoized_entry():
    space = make_space()
    assert space.read(BASE, 8) == b"\x00" * 8        # memoize page 0
    space.mprotect(BASE, PAGE_SIZE, Prot.NONE)
    with pytest.raises(SegmentationFault):
        space.read(BASE, 8)
    space.mprotect(BASE, PAGE_SIZE, Prot.READ)
    assert space.read(BASE, 8) == b"\x00" * 8


def test_pkey_mprotect_invalidates_memoized_entry():
    space = make_space()
    pkru = Pkru()
    pkru.set_access_disabled(7, True)
    assert space.read(BASE, 8, pkru=pkru) == b"\x00" * 8   # memoized, key 0
    space.pkey_mprotect(BASE, PAGE_SIZE, Prot.READ | Prot.WRITE, pkey=7)
    with pytest.raises(ProtectionKeyFault):
        space.read(BASE, 8, pkru=pkru)


def test_munmap_invalidates_memoized_entry():
    space = make_space()
    space.write(BASE + PAGE_SIZE, b"live")           # memoize page 1
    space.munmap(BASE + PAGE_SIZE, PAGE_SIZE)
    with pytest.raises(SegmentationFault) as err:
        space.read(BASE + PAGE_SIZE, 4)
    assert err.value.reason == "unmapped"
    # Neighbouring pages are untouched.
    assert space.read(BASE, 4) == b"\x00" * 4
    assert space.read(BASE + 2 * PAGE_SIZE, 4) == b"\x00" * 4


def test_remap_after_munmap_serves_fresh_page():
    space = make_space()
    space.write(BASE, b"old!")
    space.munmap(BASE, PAGE_SIZE)
    space.mmap(BASE, PAGE_SIZE, Prot.READ | Prot.WRITE, name="new",
               fixed=True)
    assert space.read(BASE, 4) == b"\x00\x00\x00\x00"


def test_fork_copy_does_not_share_fast_entries():
    parent = make_space()
    parent.write(BASE, b"parent!!")                  # memoize in parent
    child = parent.fork_copy()
    child.write(BASE, b"child!!!")
    assert parent.read(BASE, 8) == b"parent!!"
    assert child.read(BASE, 8) == b"child!!!"


def test_fork_copy_starts_with_empty_page_map():
    # The child must start with its *own*, empty page map — a fresh dict,
    # not an alias of the parent's — or a post-fork unshare on one side
    # silently corrupts the other's memoized translations.
    parent = make_space()
    parent.write(BASE, b"warmmmm!")                  # warm parent _fast
    child = parent.fork_copy()
    assert child._fast is not parent._fast
    assert child._frozen is not parent._frozen
    assert not child._fast                           # fresh, not copied
    # Fork froze the parent: its warmed entries were all evicted.
    assert not parent._fast


def _warm(space, addr=BASE):
    space.read(addr, 8)
    assert addr // PAGE_SIZE in space._fast


@pytest.mark.parametrize("change", [
    lambda s: s.mmap(BASE, PAGE_SIZE, Prot.READ | Prot.WRITE, fixed=True),
    lambda s: s.munmap(BASE, PAGE_SIZE),
    lambda s: s.mprotect(BASE, PAGE_SIZE, Prot.READ),
    lambda s: s.pkey_mprotect(BASE, PAGE_SIZE, Prot.READ | Prot.WRITE, 2),
], ids=["remap", "munmap", "mprotect", "pkey_mprotect"])
def test_mapping_change_evicts_page_entry(change):
    space = make_space()
    _warm(space)
    _warm(space, BASE + PAGE_SIZE)
    change(space)
    assert BASE // PAGE_SIZE not in space._fast
    # Only the changed page loses its entry.
    assert (BASE + PAGE_SIZE) // PAGE_SIZE in space._fast


def test_unshare_evicts_read_only_page_entry():
    # A read-only page memoized with the snapshot-shared bytearray: the
    # kernel write that unshares it must evict that entry, or later reads
    # would keep serving the snapshot's bytes.
    space = make_space(prot=Prot.READ)
    snap = space.snapshot()
    _warm(space)
    space.write_kernel(BASE, b"patched!")
    assert BASE // PAGE_SIZE not in space._fast
    assert space.read(BASE, 8) == b"patched!"
    assert bytes(snap.pages[BASE // PAGE_SIZE][:8]) == b"\x00" * 8


# ---------------------------------------------------------------- zero page


def _zero_page_intact():
    return address_space._ZERO_PAGE == bytearray(PAGE_SIZE)


def test_fresh_pages_share_one_zero_page():
    space = make_space()
    pages = {id(space._pages[BASE // PAGE_SIZE + i]) for i in range(4)}
    assert pages == {id(address_space._ZERO_PAGE)}
    assert set(range(BASE // PAGE_SIZE, BASE // PAGE_SIZE + 4)) \
        <= space._frozen


@pytest.mark.parametrize("method, addr", [
    ("write", BASE + 8),
    ("write_kernel", BASE + 8),
    ("write", BASE + PAGE_SIZE - 4),
    ("write_kernel", BASE + PAGE_SIZE - 4),
], ids=["write", "write_kernel", "write_straddle", "write_kernel_straddle"])
def test_writes_to_fresh_pages_leave_zero_page_alone(method, addr):
    one, other = make_space(), make_space()
    for space in (one, other):
        _warm(space)                                 # read-share the zeros
    getattr(one, method)(addr, b"written!")
    assert one.read_kernel(addr, 8) == b"written!"
    assert other.read_kernel(BASE, 2 * PAGE_SIZE) == bytes(2 * PAGE_SIZE)
    assert _zero_page_intact()
    fresh = AddressSpace()
    fresh.mmap(BASE, PAGE_SIZE, Prot.READ, fixed=True)
    assert fresh.read(BASE, 16) == bytes(16)


def test_mprotect_write_on_read_only_fresh_page_unshares():
    one, other = make_space(prot=Prot.READ), make_space(prot=Prot.READ)
    _warm(one)
    _warm(other)
    one.mprotect(BASE, PAGE_SIZE, Prot.READ | Prot.WRITE)
    one.write(BASE, b"now rw!!")
    assert one.read(BASE, 8) == b"now rw!!"
    assert other.read(BASE, 8) == bytes(8)
    assert _zero_page_intact()


def test_trace_store_to_fresh_page_leaves_zero_page_alone():
    # A compiled trace stores through the page map in place; the entry it
    # finds must already hold the page's own copy.
    def writer(a):
        a.mov_ri(Reg.RCX, 30)
        a.label("loop")
        a.inc(Reg.RAX)
        a.store(Reg.RDI, Reg.RAX)
        a.dec(Reg.RCX)
        a.jne("loop")
        a.hlt()
    with hot():
        env = run_to_halt(build(writer, engine=EngineConfig()))
        other = run_to_halt(build(lambda a: a.hlt(), engine=EngineConfig()))
    assert env.icache.trace_hits >= 1
    assert env.space.read_kernel(DATA_BASE, 8) == (30).to_bytes(8, "little")
    assert other.space.read_kernel(DATA_BASE, 8) == bytes(8)
    assert _zero_page_intact()


def test_fork_then_smc_isolated_in_both_directions():
    # The fork-then-SMC pitfall: both sides warm their single-page fast
    # entries on a shared RWX code page, then each side patches its own
    # copy.  Neither patch may leak — a stale page entry on either
    # side would serve the other side's bytes to the instruction fetch.
    parent = make_space(prot=Prot.READ | Prot.WRITE | Prot.EXEC)
    code = b"\x90" * 16                              # NOP sled
    parent.write(BASE, code)
    assert parent.fetch(BASE, 16) == code            # warm parent entry
    child = parent.fork_copy()
    assert child.fetch(BASE, 16) == code             # warm child entry

    parent.write(BASE, b"\xcc" + code[1:])           # parent patches [0]
    assert parent.fetch(BASE, 16) == b"\xcc" + code[1:]
    assert child.fetch(BASE, 16) == code             # child unaffected

    child.write(BASE + 8, b"\xf4")                   # child patches [8]
    expect_child = code[:8] + b"\xf4" + code[9:]
    assert child.fetch(BASE, 16) == expect_child
    # Parent still sees only its own patch — not the child's.
    assert parent.fetch(BASE, 16) == b"\xcc" + code[1:]
    # And the underlying page bytearrays really did unshare.
    assert parent._pages[BASE // PAGE_SIZE] is not \
        child._pages[BASE // PAGE_SIZE]


def test_fork_then_smc_after_restore_roundtrip():
    # Snapshot/restore interleaved with fork: restoring the parent to a
    # pre-patch snapshot must not resurrect shared pages the child has
    # since written through.
    parent = make_space(prot=Prot.READ | Prot.WRITE | Prot.EXEC)
    code = b"\x90" * 8
    parent.write(BASE, code)
    snap = parent.snapshot()
    child = parent.fork_copy()
    child.write(BASE, b"\xcc" * 8)
    parent.write(BASE, b"\xf4" * 8)
    parent.restore(snap)
    assert parent.fetch(BASE, 8) == code
    assert child.fetch(BASE, 8) == b"\xcc" * 8
    # Post-restore writes stay private to the parent.
    parent.write(BASE, b"\x0f" * 8)
    assert child.fetch(BASE, 8) == b"\xcc" * 8


# ------------------------------------------------------------- region_at


def test_region_at_bisect_with_gaps():
    space = AddressSpace()
    starts = [0x10_0000, 0x30_0000, 0x50_0000]
    for start in starts:
        space.mmap(start, PAGE_SIZE, Prot.READ, name=f"r{start:#x}",
                   fixed=True)
    for start in starts:
        assert space.region_at(start).start == start
        assert space.region_at(start + PAGE_SIZE - 1).start == start
        assert space.region_at(start + PAGE_SIZE) is None   # gap after
    assert space.region_at(0) is None
    assert space.region_at(0x20_0000) is None                # gap between
    assert space.region_at(0xFFFF_FFFF_0000) is None         # past the end


def test_region_at_after_unmap_and_split():
    space = AddressSpace()
    space.mmap(BASE, 4 * PAGE_SIZE, Prot.READ | Prot.WRITE, name="big",
               fixed=True)
    # Punch a hole in the middle; region_at must track the split index.
    space.munmap(BASE + PAGE_SIZE, PAGE_SIZE)
    assert space.region_at(BASE) is not None
    assert space.region_at(BASE + PAGE_SIZE) is None
    assert space.region_at(BASE + 2 * PAGE_SIZE) is not None
