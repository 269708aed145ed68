"""P4b — memory footprint of NULL-execution checking (§4.4 / §6.1).

Compares zpoline's whole-address-space bitmap against K23's bounded hash
set, and checks that each structure's lookup finds a stored site (the
runtime side of the trade-off that separates zpoline-ultra's small delta
from K23-ultra's in Table 5).
"""

import pytest

from repro.memory import AddressBitmap, RobinHoodSet, TwoLevelTable
from repro.memory.pages import USER_VA_SIZE

SITES = [0x7F10_0000_0000 + index * 0x40 for index in range(92)]  # redis


@pytest.fixture
def bitmap():
    structure = AddressBitmap()
    for site in SITES:
        structure.set(site)
    return structure


@pytest.fixture
def hashset():
    structure = RobinHoodSet()
    for site in SITES:
        structure.add(site)
    return structure


def test_bitmap_check(bitmap):
    assert bitmap.test(SITES[41])


def test_hashset_check(hashset):
    assert SITES[41] in hashset


@pytest.fixture
def twolevel():
    structure = TwoLevelTable()
    for site in SITES:
        structure.set(site)
    return structure


def test_twolevel_check(twolevel):
    """The zpoline authors' proposed alternative: one extra dependent load
    per check vs the flat bitmap."""
    assert twolevel.test(SITES[41])


def test_footprint_comparison(bitmap, hashset, twolevel, save_artifact):
    report = (
        "P4b footprint (92 redis sites):\n"
        f"  zpoline bitmap  : {bitmap.reserved_virtual_bytes:>16,} B reserved "
        f"({bitmap.reserved_virtual_bytes / (1 << 40):.0f} TiB), "
        f"{bitmap.resident_bytes:,} B resident\n"
        f"  two-level table : {twolevel.reserved_virtual_bytes:>16,} B reserved "
        f"({twolevel.reserved_virtual_bytes / (1 << 20):.0f} MiB), "
        f"{twolevel.resident_bytes:,} B resident\n"
        f"  K23 hash set    : {hashset.memory_bytes:>16,} B total\n"
    )
    save_artifact("p4b_memory.txt", report)
    assert bitmap.reserved_virtual_bytes == USER_VA_SIZE // 8
    assert twolevel.reserved_virtual_bytes < \
        bitmap.reserved_virtual_bytes / 100_000
    assert hashset.memory_bytes < 16 * 1024 < twolevel.reserved_virtual_bytes
