"""Unit tests for command and request types."""

import dataclasses

import pytest

from repro.dram.commands import (
    Address,
    Command,
    CommandType,
    OpType,
    Request,
    RequestKind,
)


class TestCommandType:
    def test_column_classification(self):
        assert CommandType.COL_READ.is_column
        assert CommandType.COL_WRITE_AP.is_column
        assert not CommandType.ACTIVATE.is_column
        assert not CommandType.PRECHARGE.is_column

    def test_read_write_classification(self):
        assert CommandType.COL_READ.is_read
        assert CommandType.COL_READ_AP.is_read
        assert not CommandType.COL_WRITE.is_read
        assert CommandType.COL_WRITE.is_write
        assert CommandType.COL_WRITE_AP.is_write
        assert not CommandType.ACTIVATE.is_read

    def test_auto_precharge_flag(self):
        assert CommandType.COL_READ_AP.auto_precharge
        assert CommandType.COL_WRITE_AP.auto_precharge
        assert not CommandType.COL_READ.auto_precharge


class TestAddress:
    def test_same_bank(self):
        a = Address(0, 1, 2, 3, 4)
        b = Address(0, 1, 2, 9, 9)
        c = Address(0, 1, 3, 3, 4)
        assert a.same_bank(b)
        assert not a.same_bank(c)

    def test_same_rank(self):
        a = Address(0, 1, 2, 3, 4)
        assert a.same_rank(Address(0, 1, 7, 0, 0))
        assert not a.same_rank(Address(0, 2, 2, 3, 4))
        assert not a.same_rank(Address(1, 1, 2, 3, 4))

    def test_bank_key(self):
        assert Address(1, 2, 3, 4, 5).bank_key() == (1, 2, 3)


class TestRequest:
    def test_unique_ids(self):
        a = Request(OpType.READ, Address(0, 0, 0, 0, 0))
        b = Request(OpType.READ, Address(0, 0, 0, 0, 0))
        assert a.req_id != b.req_id

    def test_is_read(self):
        assert Request(OpType.READ, Address(0, 0, 0, 0, 0)).is_read
        assert not Request(OpType.WRITE, Address(0, 0, 0, 0, 0)).is_read

    def test_latency_requires_release(self):
        r = Request(OpType.READ, Address(0, 0, 0, 0, 0), arrival=10)
        assert r.latency is None
        r.release = 110
        assert r.latency == 100

    def test_default_kind_is_demand(self):
        r = Request(OpType.READ, Address(0, 0, 0, 0, 0))
        assert r.kind is RequestKind.DEMAND


class TestCommand:
    def test_rejects_negative_cycle(self):
        with pytest.raises(ValueError):
            Command(CommandType.ACTIVATE, -1, 0, 0)

    def test_frozen(self):
        cmd = Command(CommandType.ACTIVATE, 5, 0, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cmd.cycle = 6  # type: ignore[misc]

    def test_defaults_and_keywords(self):
        cmd = Command(CommandType.REFRESH, 9, channel=1, rank=2)
        assert (cmd.bank, cmd.row, cmd.request_id, cmd.domain) == \
            (-1, -1, -1, -1)
        assert Command(CommandType.ACTIVATE, 5, 0, 1, 2, 3, 4, 5) == \
            Command(type=CommandType.ACTIVATE, cycle=5, channel=0, rank=1,
                    bank=2, row=3, request_id=4, domain=5)

    def test_value_equality(self):
        a = Command(CommandType.ACTIVATE, 5, 0, 1, 2, 3, 4, 5)
        assert a == Command(CommandType.ACTIVATE, 5, 0, 1, 2, 3, 4, 5)
        assert a != Command(CommandType.ACTIVATE, 5, 0, 1, 2, 3, 4, 6)
        assert a != Command(CommandType.COL_READ, 5, 0, 1, 2, 3, 4, 5)

    def test_hashable_as_dict_key(self):
        a = Command(CommandType.ACTIVATE, 5, 0, 1, 2, 3)
        seen = {a: "first"}
        twin = Command(CommandType.ACTIVATE, 5, 0, 1, 2, 3)
        assert hash(twin) == hash(a)
        assert seen[twin] == "first"
        assert Command(CommandType.ACTIVATE, 6, 0, 1, 2, 3) not in seen

    def test_repr_lists_every_field(self):
        cmd = Command(CommandType.COL_READ_AP, 7, 0, 1, 2, 3, 4, 5)
        assert repr(cmd) == (
            "Command(type=<CommandType.COL_READ_AP: 'RDA'>, cycle=7, "
            "channel=0, rank=1, bank=2, row=3, request_id=4, domain=5)"
        )

    def test_dataclasses_replace(self):
        cmd = Command(CommandType.ACTIVATE, 5, 0, 1, 2, 3, 4, 5)
        moved = dataclasses.replace(cmd, cycle=11)
        assert moved == Command(CommandType.ACTIVATE, 11, 0, 1, 2, 3, 4, 5)
        assert cmd.cycle == 5
        with pytest.raises(ValueError):
            dataclasses.replace(cmd, cycle=-1)


class TestCommandTimes:
    def test_first_is_earliest_command(self):
        from repro.core.schedule import CommandTimes

        assert CommandTimes(act=10, col=21, data=32).first == 10
        assert CommandTimes(act=30, col=21, data=32).first == 21

    def test_value_equality(self):
        from repro.core.schedule import CommandTimes

        times = CommandTimes(10, 21, 32)
        assert times == CommandTimes(act=10, col=21, data=32)
        assert times != CommandTimes(10, 21, 33)
        assert (times.act, times.col, times.data) == (10, 21, 32)


class TestOpType:
    def test_read_flag(self):
        assert OpType.READ.is_read
        assert not OpType.WRITE.is_read
