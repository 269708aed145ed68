"""AddressSpace unit tests: mapping, permissions, PKU, regions, fork."""

import pytest

from repro.errors import MapError, ProtectionKeyFault, SegmentationFault
from repro.memory import PAGE_SIZE, AddressSpace, Prot
from repro.memory.pku import Pkru, xom_pkru_for


@pytest.fixture
def space():
    return AddressSpace()


def test_mmap_returns_page_aligned_base(space):
    base = space.mmap(None, 100, Prot.READ | Prot.WRITE)
    assert base % PAGE_SIZE == 0
    assert space.is_mapped(base, 100)


def test_mmap_rounds_length_to_pages(space):
    base = space.mmap(None, 1, Prot.READ)
    assert space.is_mapped(base, PAGE_SIZE)
    assert not space.is_mapped(base + PAGE_SIZE)


def test_mmap_fixed_at_zero_for_trampoline(space):
    """The trampoline page must be mappable at virtual address 0."""
    base = space.mmap(0, PAGE_SIZE, Prot.READ | Prot.EXEC, name="[trampoline]",
                      fixed=True)
    assert base == 0
    assert space.is_mapped(0)


def test_mmap_rejects_unaligned_fixed(space):
    with pytest.raises(MapError):
        space.mmap(123, PAGE_SIZE, Prot.READ, fixed=True)


def test_mmap_rejects_overlap_without_fixed(space):
    base = space.mmap(None, PAGE_SIZE, Prot.READ)
    with pytest.raises(MapError):
        space.mmap(base, PAGE_SIZE, Prot.READ)


def test_mmap_fixed_replaces_existing(space):
    base = space.mmap(None, PAGE_SIZE, Prot.READ | Prot.WRITE)
    space.write(base, b"before")
    space.mmap(base, PAGE_SIZE, Prot.READ | Prot.WRITE, fixed=True)
    assert space.read(base, 6) == b"\x00" * 6


def test_read_write_roundtrip(space):
    base = space.mmap(None, PAGE_SIZE, Prot.READ | Prot.WRITE)
    space.write(base + 10, b"hello")
    assert space.read(base + 10, 5) == b"hello"


def test_cross_page_read_write(space):
    base = space.mmap(None, 2 * PAGE_SIZE, Prot.READ | Prot.WRITE)
    data = bytes(range(200)) * 3  # 600 bytes spanning the page boundary
    space.write(base + PAGE_SIZE - 100, data)
    assert space.read(base + PAGE_SIZE - 100, len(data)) == data


def test_unmapped_access_faults(space):
    with pytest.raises(SegmentationFault) as exc:
        space.read(0xDEAD000, 1)
    assert exc.value.reason == "unmapped"


def test_write_to_readonly_faults(space):
    base = space.mmap(None, PAGE_SIZE, Prot.READ)
    with pytest.raises(SegmentationFault) as exc:
        space.write(base, b"x")
    assert exc.value.reason == "permission"
    assert exc.value.access == "write"


def test_fetch_requires_exec(space):
    base = space.mmap(None, PAGE_SIZE, Prot.READ | Prot.WRITE)
    with pytest.raises(SegmentationFault):
        space.fetch(base, 2)
    space.mprotect(base, PAGE_SIZE, Prot.READ | Prot.EXEC)
    assert space.fetch(base, 2) == b"\x00\x00"


def test_null_page_unmapped_by_default(space):
    """The invariant many mechanisms rely on (Section 4.4): without a
    trampoline, any NULL access faults."""
    for access in ("read", "write", "exec"):
        with pytest.raises(SegmentationFault):
            if access == "read":
                space.read(0, 1)
            elif access == "write":
                space.write(0, b"x")
            else:
                space.fetch(0, 1)


def test_munmap_removes_pages_and_region(space):
    base = space.mmap(None, 2 * PAGE_SIZE, Prot.READ, name="lib.so")
    space.munmap(base, PAGE_SIZE)
    assert not space.is_mapped(base)
    assert space.is_mapped(base + PAGE_SIZE)
    region = space.region_at(base + PAGE_SIZE)
    assert region is not None and region.name == "lib.so"
    assert space.region_at(base) is None


def test_mprotect_unmapped_raises(space):
    with pytest.raises(MapError):
        space.mprotect(0x5000, PAGE_SIZE, Prot.READ)


def test_region_offsets_survive_rebase():
    """(region, offset) pairs are the offline log currency: the same library
    mapped at two ASLR bases yields the same offsets."""
    a, b = AddressSpace(), AddressSpace()
    base_a = a.mmap(0x10000, PAGE_SIZE, Prot.READ | Prot.EXEC,
                    name="libc.so.6", fixed=True)
    base_b = b.mmap(0x7F0000, PAGE_SIZE, Prot.READ | Prot.EXEC,
                    name="libc.so.6", fixed=True)
    target_a = base_a + 0x123
    target_b = base_b + 0x123
    ra, rb = a.region_at(target_a), b.region_at(target_b)
    assert (ra.name, target_a - ra.start) == (rb.name, target_b - rb.start)


def test_maps_rendering(space):
    base = space.mmap(None, PAGE_SIZE, Prot.READ | Prot.EXEC, name="/bin/app")
    lines = space.maps()
    assert any("/bin/app" in line and "r-xp" in line for line in lines)
    assert any(f"{base:012x}" in line for line in lines)


# ---------------------------------------------------------------------- PKU


def test_pku_blocks_data_access_not_exec(space):
    """The XOM asymmetry behind P4a: data faults, execution proceeds."""
    base = space.mmap(0, PAGE_SIZE, Prot.READ | Prot.EXEC, name="[trampoline]",
                      fixed=True)
    space.write_kernel(base, b"\x90\x90")
    space.pkey_mprotect(base, PAGE_SIZE, Prot.READ | Prot.EXEC, pkey=1)
    pkru = xom_pkru_for(1)
    with pytest.raises(ProtectionKeyFault):
        space.read(base, 1, pkru=pkru)
    # Writes fault too (page permissions deny W before PKU is consulted,
    # exactly as on hardware where the trampoline is mapped r-x).
    with pytest.raises(SegmentationFault):
        space.write(base, b"x", pkru=pkru)
    # Instruction fetch is NOT blocked by PKU.
    assert space.fetch(base, 2) == b"\x90\x90"


def test_pku_write_disable_only():
    pkru = Pkru()
    pkru.set_write_disabled(2, True)
    assert pkru.permits(2, "read")
    assert not pkru.permits(2, "write")
    assert pkru.permits(2, "exec")


def test_pku_default_key_always_allows(space):
    base = space.mmap(None, PAGE_SIZE, Prot.READ | Prot.WRITE)
    pkru = xom_pkru_for(1)  # key 1 locked; key 0 (default) open
    space.write(base, b"ok", pkru=pkru)
    assert space.read(base, 2, pkru=pkru) == b"ok"


def test_pkey_mprotect_validates_key(space):
    base = space.mmap(None, PAGE_SIZE, Prot.READ)
    with pytest.raises(MapError):
        space.pkey_mprotect(base, PAGE_SIZE, Prot.READ, pkey=16)


def test_kernel_access_bypasses_protections(space):
    """ptrace POKETEXT / process_vm_writev write through page protections."""
    base = space.mmap(None, PAGE_SIZE, Prot.READ | Prot.EXEC)
    space.write_kernel(base, b"\x0f\x05")
    assert space.read_kernel(base, 2) == b"\x0f\x05"


# ---------------------------------------------------------------------- fork


def test_fork_copy_is_independent(space):
    base = space.mmap(None, PAGE_SIZE, Prot.READ | Prot.WRITE, name="heap")
    space.write(base, b"parent")
    child = space.fork_copy()
    child.write(base, b"child!")
    assert space.read(base, 6) == b"parent"
    assert child.read(base, 6) == b"child!"
    assert [r.name for r in child.regions] == [r.name for r in space.regions]


def test_mapped_bytes_accounting(space):
    assert space.mapped_bytes == 0
    space.mmap(None, 3 * PAGE_SIZE, Prot.READ)
    assert space.mapped_bytes == 3 * PAGE_SIZE


# ------------------------------------------------------------ read_cstr


def bytewise_cstr(space, addr, limit=4096):
    """Reference: the one-byte-at-a-time loop ``read_cstr`` replaces."""
    out = bytearray()
    while len(out) < limit:
        byte = space.read_kernel(addr + len(out), 1)
        if byte == b"\x00":
            break
        out += byte
    return out.decode("latin-1")


def outcome(read, space, addr, limit):
    try:
        return read(space, addr, limit)
    except SegmentationFault as fault:
        return ("fault", fault.address, fault.access, fault.reason)


@pytest.fixture
def two_pages(space):
    """Two mapped pages of non-NUL bytes followed by an unmapped page."""
    base = space.mmap(0x10000, 2 * PAGE_SIZE, Prot.NONE, fixed=True)
    space.write_kernel(base, bytes(0x20 + i % 0xDF
                                   for i in range(2 * PAGE_SIZE)))
    return base


def check(space, addr, limit=4096):
    expected = outcome(bytewise_cstr, space, addr, limit)
    assert outcome(AddressSpace.read_cstr, space, addr, limit) == expected
    return expected


def test_read_cstr_nul_as_last_byte_of_page(space, two_pages):
    space.write_kernel(two_pages + PAGE_SIZE - 1, b"\x00")
    text = check(space, two_pages + PAGE_SIZE - 10)
    assert len(text) == 9
    assert check(space, two_pages + PAGE_SIZE - 1) == ""


def test_read_cstr_crosses_into_next_mapped_page(space, two_pages):
    space.write_kernel(two_pages + PAGE_SIZE + 5, b"\x00")
    assert len(check(space, two_pages + PAGE_SIZE - 7)) == 12


def test_read_cstr_faults_at_first_unmapped_byte(space, two_pages):
    end = two_pages + 2 * PAGE_SIZE
    assert check(space, end - 3) == ("fault", end, "read", "unmapped")
    assert check(space, end) == ("fault", end, "read", "unmapped")
    assert check(space, 0) == ("fault", 0, "read", "unmapped")
    # A NUL before the hole, or a limit that ends at it, never faults.
    assert len(check(space, end - 3, limit=3)) == 3
    space.write_kernel(end - 2, b"\x00")
    assert len(check(space, end - 3)) == 1


def test_read_cstr_without_nul_stops_at_limit(space, two_pages):
    for limit in (0, 1, 100, PAGE_SIZE - 20, PAGE_SIZE + 1):
        assert len(check(space, two_pages + 20, limit)) == limit
    # The default limit caps a string with no NUL at all.
    assert len(check(space, two_pages)) == 4096


@pytest.mark.parametrize("nul", [None, 0, 1, PAGE_SIZE - 1, PAGE_SIZE,
                                 2 * PAGE_SIZE - 1])
def test_read_cstr_matches_bytewise_reference(space, two_pages, nul):
    if nul is not None:
        space.write_kernel(two_pages + nul, b"\x00")
    for start in (0, 1, PAGE_SIZE - 2, PAGE_SIZE - 1, PAGE_SIZE,
                  2 * PAGE_SIZE - 1):
        for limit in (1, 2, PAGE_SIZE, 4096 + 7, 3 * PAGE_SIZE):
            check(space, two_pages + start, limit)
