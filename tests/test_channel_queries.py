"""The channel's earliest-issue queries against oracles outside them.

Both engines schedule through the same :class:`~repro.dram.channel.Channel`,
so the differential suite cannot catch a query that is wrong in the same
way for both.  These properties pin the queries to code that shares
nothing with them:

* every command issued at a query's answer forms a stream the
  independent :class:`~repro.dram.checker.TimingChecker` accepts
  (the answers are legal);
* when an ``earliest_activate`` or ``earliest_column`` answer exceeds the
  query's lower bound, the same command one cycle earlier makes the
  checker report a violation (the answers are minimal);
* ``earliest_data_start``, ``data_conflict`` and ``cmd_bus_free`` equal a
  naive scan over the commands issued so far, written out below.

Timing parameters are drawn at random, so parts with ``tRTRS > tBURST``
occur.  Refresh and power-down are left out; explicit precharges are
issued but not checked for minimality, because the checker does not
model tRTP/tWR before an explicit precharge.
"""

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.dram.channel import Channel
from repro.dram.checker import TimingChecker
from repro.dram.commands import Command, CommandType
from repro.dram.timing import TimingParams

#: Eight banks per rank: tFAW binds only when a fifth activate follows
#: four others to distinct banks within tFAW.
RANKS = 3
BANKS = 8
STEPS = 40

_COLUMNS = (
    CommandType.COL_READ, CommandType.COL_WRITE,
    CommandType.COL_READ_AP, CommandType.COL_WRITE_AP,
)


@st.composite
def timing_params(draw):
    tRCD = draw(st.integers(6, 14))
    tCAS = draw(st.integers(6, 14))
    tCWD = draw(st.integers(3, min(tCAS, 9)))
    tBURST = draw(st.integers(2, 6))
    tRAS = draw(st.integers(16, 32))
    tRP = draw(st.integers(6, 14))
    return TimingParams(
        tRCD=tRCD, tCAS=tCAS, tCWD=tCWD, tBURST=tBURST,
        tRAS=tRAS, tRP=tRP, tRC=tRAS + tRP,
        tRRD=draw(st.integers(3, 7)),
        tFAW=draw(st.integers(16, 36)),
        tWR=draw(st.integers(6, 14)),
        tWTR=draw(st.integers(3, 9)),
        tRTP=draw(st.integers(3, 9)),
        tCCD=max(2, tBURST),
        tRTRS=draw(st.integers(1, 3)),
    )


class _Oracle:
    """Naive bus model over the issued command stream."""

    def __init__(self, params: TimingParams) -> None:
        self.params = params
        self.history = []
        self.checker = TimingChecker(params)

    def bursts(self):
        p = self.params
        for cmd in self.history:
            if cmd.type.is_column:
                offset = p.tCAS if cmd.type.is_read else p.tCWD
                yield cmd.cycle + offset, cmd.rank

    def data_conflict(self, start: int, rank: int) -> bool:
        p = self.params
        return any(
            abs(start - other) < p.tBURST + (0 if r == rank else p.tRTRS)
            for other, r in self.bursts()
        )

    def earliest_data_start(self, lower: int, rank: int) -> int:
        start = lower
        while self.data_conflict(start, rank):
            start += 1
        return start

    def cmd_bus_free(self, cycle: int) -> bool:
        return all(cmd.cycle != cycle for cmd in self.history)

    def rejects(self, cmd: Command) -> bool:
        """Whether appending ``cmd`` makes the checker object."""
        return self.checker.check(self.history + [cmd]) != []


def _check_bus_queries(channel, oracle, rng, now):
    for _ in range(3):
        start = now + rng.randrange(0, 60)
        rank = rng.randrange(RANKS)
        assert channel.data_conflict(start, rank) == \
            oracle.data_conflict(start, rank)
        assert channel.earliest_data_start(start, rank) == \
            oracle.earliest_data_start(start, rank)
        assert channel.cmd_bus_free(start) == oracle.cmd_bus_free(start)


def _run_history(params, rng):
    channel = Channel(params, num_ranks=RANKS, num_banks=BANKS)
    oracle = _Oracle(params)
    rows = {}
    now = 0
    for _ in range(STEPS):
        lower = now + rng.choice((0, 0, 1, 2, 5, 20))
        rank = rng.randrange(RANKS)
        bank = rng.randrange(BANKS)
        if not channel.bank(rank, bank).is_open:
            ctype = CommandType.ACTIVATE
            rows[(rank, bank)] = rng.randrange(4)
            t = channel.earliest_activate(lower, rank, bank)
        elif rng.random() < 0.2:
            ctype = CommandType.PRECHARGE
            t = channel.earliest_precharge(lower, rank, bank)
        else:
            ctype = rng.choice(_COLUMNS)
            t = channel.earliest_column(lower, rank, bank, ctype.is_read)
            offset = params.tCAS if ctype.is_read else params.tCWD
            assert not oracle.data_conflict(t + offset, rank)
        assert t >= lower
        row = rows[(rank, bank)]
        if ctype is not CommandType.PRECHARGE and t > lower:
            early = Command(ctype, t - 1, 0, rank, bank, row)
            assert oracle.rejects(early), (
                f"{ctype.value} at {t - 1} passes the checker, but the "
                f"channel answered {t} (lower bound {lower})"
            )
        if ctype is CommandType.ACTIVATE:
            # The TP planning query must agree with the column query
            # the applied activate will answer.
            is_read = rng.random() < 0.5
            planned = channel.earliest_column_after_planned_act(
                t, rank, is_read
            )
        cmd = Command(ctype, t, 0, rank, bank, row)
        channel.issue(cmd)
        oracle.history.append(cmd)
        now = t
        if ctype is CommandType.ACTIVATE:
            assert channel.earliest_column(t, rank, bank, is_read) == planned
        if rng.random() < 0.3:
            channel.prune(now)
        _check_bus_queries(channel, oracle, rng, now)
    assert oracle.checker.check(oracle.history) == []


@given(params=timing_params(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_queries_legal_minimal_and_match_naive_bus(params, seed):
    _run_history(params, random.Random(seed))


def test_long_trtrs_part():
    """A part whose rank switch outlasts a burst (tRTRS > tBURST)."""
    params = TimingParams(tBURST=2, tCCD=2, tRTRS=3)
    for seed in range(20):
        _run_history(params, random.Random(seed))
