"""Property-based tests on the memory substrate (hypothesis)."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.errors import SegmentationFault
from repro.memory import AddressBitmap, AddressSpace, PAGE_SIZE, Prot, RobinHoodSet
from repro.memory.pages import page_span

ADDRESSES = st.integers(min_value=0, max_value=(1 << 40) - 1)


class TestRobinHoodSetModel:
    """The robin-hood set must behave exactly like a built-in set."""

    @given(st.lists(st.tuples(st.sampled_from(["add", "discard", "query"]),
                              st.integers(min_value=0, max_value=200)),
                    max_size=200))
    @settings(max_examples=200)
    def test_against_model(self, ops):
        real = RobinHoodSet(initial_capacity=4)
        model = set()
        for op, value in ops:
            if op == "add":
                assert real.add(value) == (value not in model)
                model.add(value)
            elif op == "discard":
                assert real.discard(value) == (value in model)
                model.discard(value)
            else:
                assert (value in real) == (value in model)
            assert len(real) == len(model)
        assert sorted(real) == sorted(model)

    @given(st.sets(st.integers(min_value=0, max_value=(1 << 48) - 1),
                   max_size=100))
    @settings(max_examples=100)
    def test_growth_preserves_membership(self, values):
        real = RobinHoodSet(initial_capacity=2)
        for value in values:
            real.add(value)
        assert all(value in real for value in values)
        assert len(real) == len(values)


class TestAddressBitmapModel:
    @given(st.lists(st.tuples(st.sampled_from(["set", "clear", "test"]),
                              ADDRESSES), max_size=150))
    @settings(max_examples=150)
    def test_against_model(self, ops):
        bitmap = AddressBitmap()
        model = set()
        for op, address in ops:
            if op == "set":
                bitmap.set(address)
                model.add(address)
            elif op == "clear":
                bitmap.clear(address)
                model.discard(address)
            else:
                assert bitmap.test(address) == (address in model)
        assert len(bitmap) == len(model)


class TestAddressSpaceRoundtrip:
    @given(st.lists(st.tuples(
        st.integers(min_value=0, max_value=4 * PAGE_SIZE - 1),
        st.binary(min_size=1, max_size=64)), min_size=1, max_size=40))
    @settings(max_examples=100)
    def test_write_read_roundtrip(self, writes):
        space = AddressSpace()
        base = space.mmap(None, 5 * PAGE_SIZE, Prot.READ | Prot.WRITE)
        shadow = bytearray(5 * PAGE_SIZE)
        for offset, data in writes:
            space.write(base + offset, data)
            shadow[offset:offset + len(data)] = data
        assert space.read(base, 5 * PAGE_SIZE) == bytes(shadow)

    @given(st.integers(min_value=1, max_value=8),
           st.integers(min_value=0, max_value=6))
    @settings(max_examples=60)
    def test_mprotect_is_page_exact(self, pages, flip_page):
        space = AddressSpace()
        base = space.mmap(None, pages * PAGE_SIZE, Prot.READ | Prot.WRITE)
        if flip_page < pages:
            space.mprotect(base + flip_page * PAGE_SIZE, PAGE_SIZE,
                           Prot.READ)
        for page in range(pages):
            prot = space.prot_at(base + page * PAGE_SIZE)
            expected = (Prot.READ if page == flip_page and flip_page < pages
                        else Prot.READ | Prot.WRITE)
            assert prot == expected

    @given(st.data())
    @settings(max_examples=60)
    def test_fork_copy_divergence(self, data):
        space = AddressSpace()
        base = space.mmap(None, PAGE_SIZE, Prot.READ | Prot.WRITE)
        initial = data.draw(st.binary(min_size=8, max_size=8))
        space.write(base, initial)
        child = space.fork_copy()
        mutation = data.draw(st.binary(min_size=8, max_size=8))
        child.write(base, mutation)
        assert space.read(base, 8) == initial
        assert child.read(base, 8) == mutation


KERNEL_BASE = 0x10_0000
#: Five pages at KERNEL_BASE with a gap at page 2, so ranges can start,
#: end or cross into unmapped memory; page 3 is read-only (kernel
#: accesses ignore protection).
KERNEL_PAGES = (0, 1, 3, 4)


def _kernel_space():
    space = AddressSpace()
    for page in KERNEL_PAGES:
        addr = KERNEL_BASE + page * PAGE_SIZE
        space.mmap(addr, PAGE_SIZE, Prot.READ | Prot.WRITE, fixed=True)
        space.write(addr, bytes((page * 7 + i) & 0xFF for i in range(64)))
    space.mprotect(KERNEL_BASE + 3 * PAGE_SIZE, PAGE_SIZE, Prot.READ)
    return space


def _reference_read_kernel(space, addr, length):
    """The page-by-page path: every page mapped, then ``_copy_out``."""
    for idx in page_span(addr, length):
        if idx not in space._pages:
            raise SegmentationFault(addr, "read", reason="unmapped")
    return space._copy_out(addr, length)


def _reference_write_kernel(space, addr, data):
    """The page-by-page path: every page mapped, then ``_copy_in``."""
    for idx in page_span(addr, len(data)):
        if idx not in space._pages:
            raise SegmentationFault(addr, "write", reason="unmapped")
    space._copy_in(addr, data)


def _outcome(call):
    try:
        return ("ok", call())
    except SegmentationFault as exc:
        return (type(exc), str(exc), exc.address, exc.access, exc.reason)


_KERNEL_ADDRS = st.builds(
    lambda page, off: KERNEL_BASE + page * PAGE_SIZE + off,
    st.integers(min_value=-1, max_value=5),
    st.one_of(st.integers(min_value=0, max_value=PAGE_SIZE - 1),
              st.integers(min_value=PAGE_SIZE - 16, max_value=PAGE_SIZE - 1)))
_KERNEL_LENGTHS = st.one_of(st.integers(min_value=0, max_value=24),
                            st.integers(min_value=0, max_value=2 * PAGE_SIZE))
_KERNEL_OPS = st.lists(st.one_of(
    st.tuples(st.just("read"), _KERNEL_ADDRS, _KERNEL_LENGTHS),
    st.tuples(st.just("user_read"), _KERNEL_ADDRS,
              st.integers(min_value=1, max_value=8)),
    st.tuples(st.just("write"), _KERNEL_ADDRS,
              st.one_of(st.binary(max_size=16),
                        st.binary(min_size=PAGE_SIZE - 8,
                                  max_size=PAGE_SIZE + 8))),
    st.tuples(st.just("snapshot"), st.none(), st.none())), max_size=30)


def _page_map(space):
    """The memoized entries by page, with page bytes copied out."""
    return {idx: (bytes(page), prot, pkey)
            for idx, (page, prot, pkey) in space._fast.items()}


class TestKernelAccessFastPath:
    """``read_kernel``/``write_kernel`` single-page fast paths against the
    page-by-page ``_copy_out``/``_copy_in`` path they short-cut."""

    @given(_KERNEL_OPS)
    @settings(max_examples=150, deadline=None)
    def test_against_copy_paths(self, ops):
        fast, ref = _kernel_space(), _kernel_space()
        snapshots = []
        for op, addr, arg in ops:
            if op == "snapshot":
                fast_snap, ref_snap = fast.snapshot(), ref.snapshot()
                snapshots.append((fast_snap, {
                    idx: bytes(page) for idx, page in ref_snap.pages.items()}))
                continue
            if op == "read":
                got = _outcome(lambda: fast.read_kernel(addr, arg))
                want = _outcome(lambda: _reference_read_kernel(ref, addr, arg))
            elif op == "user_read":
                # Memoizes page entries: a later kernel write must be seen.
                got = _outcome(lambda: fast.read(addr, arg))
                want = _outcome(lambda: ref.read(addr, arg))
            else:
                frozen = set(fast._frozen)
                got = _outcome(lambda: fast.write_kernel(addr, arg))
                want = _outcome(
                    lambda: _reference_write_kernel(ref, addr, arg))
                for idx in page_span(addr, len(arg)):
                    if got[0] == "ok" and idx in frozen:
                        # Unshared from the snapshot, and the memoized
                        # translation of the shared page evicted.
                        assert idx not in fast._frozen
                        assert idx not in fast._fast
            assert got == want
        assert fast._pages == ref._pages
        assert _page_map(fast) == _page_map(ref)
        assert fast._frozen == ref._frozen
        for snap, pages in snapshots:
            assert {idx: bytes(page)
                    for idx, page in snap.pages.items()} == pages
