"""The syscall table is derived from ``Nr`` and the ``sys_<name>``
handlers; these tests pin what the derivation produces."""

from repro.kernel import syscall_impl
from repro.kernel.syscall_impl import SYSCALL_TABLE
from repro.kernel.syscalls import Nr


def test_each_number_maps_to_its_named_handler():
    for nr, handler in SYSCALL_TABLE.items():
        expected = "sys_fsync" if nr is Nr.fdatasync else f"sys_{nr.name}"
        assert handler.__name__ == expected, nr.name


def test_exactly_three_numbers_have_no_handler():
    missing = {nr.name for nr in Nr if nr not in SYSCALL_TABLE}
    assert missing == {"pwritev", "process_vm_readv", "process_vm_writev"}


def test_every_handler_serves_a_number():
    handlers = {name for name in vars(syscall_impl)
                if name.startswith("sys_")}
    assert handlers == {handler.__name__
                        for handler in SYSCALL_TABLE.values()}


def test_name_of_known_and_unknown_numbers():
    for member in Nr:
        assert Nr.name_of(int(member)) == member.name
    assert Nr.name_of(500) == "sys_500"
    assert Nr.name_of(-1) == "sys_-1"
