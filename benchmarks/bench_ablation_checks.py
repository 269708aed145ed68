"""Ablation: NULL-execution check structures — bitmap vs robin-hood set.

The P4a/P4b design choice quantified: zpoline's bitmap probes in O(1) bit
operations but reserves span/8 bytes of virtual memory; K23's hash set is
bounded by the offline log but pays a hashed probe.  Sweeps the site count
to show the bitmap reservation stays fixed and the probe length stays
bounded (the point of robin hood: bounded probe lengths even as the table
fills).
"""

import pytest

from repro.memory import AddressBitmap, RobinHoodSet

SITE_COUNTS = [7, 44, 92, 500]  # pwd … lighttpd … redis … stress-scale


def _sites(count: int):
    return [0x7F10_0000_0000 + index * 0x39 * 16 for index in range(count)]


@pytest.mark.parametrize("count", SITE_COUNTS)
def test_bitmap_probe_scaling(count):
    bitmap = AddressBitmap()
    sites = _sites(count)
    for site in sites:
        bitmap.set(site)
    probe = sites[count // 2]
    assert bitmap.test(probe)


@pytest.mark.parametrize("count", SITE_COUNTS)
def test_hashset_probe_scaling(count):
    table = RobinHoodSet()
    sites = _sites(count)
    for site in sites:
        table.add(site)
    probe = sites[count // 2]
    assert probe in table


def test_probe_length_stays_bounded(save_artifact):
    lines = ["Ablation: check-structure footprint and probe length",
             f"{'sites':>6} {'bitmap reserved':>18} {'set bytes':>10} "
             f"{'avg probes':>11} {'max disp':>9}"]

    rows = []
    for count in SITE_COUNTS:
        table = RobinHoodSet()
        bitmap = AddressBitmap()
        for site in _sites(count):
            table.add(site)
            bitmap.set(site)
        for site in _sites(count):
            assert site in table
        rows.append((count, bitmap.reserved_virtual_bytes,
                     table.memory_bytes, table.average_probe_length,
                     table.max_probe_distance))
    for count, reserved, set_bytes, avg_probe, max_disp in rows:
        lines.append(f"{count:>6} {reserved:>18,} {set_bytes:>10,} "
                     f"{avg_probe:>11.2f} {max_disp:>9}")
        assert avg_probe < 3.0   # robin hood keeps lookups near-constant
        assert max_disp <= 16
        assert reserved == rows[0][1]  # bitmap reservation is size-blind
    save_artifact("ablation_checks.txt", "\n".join(lines))
