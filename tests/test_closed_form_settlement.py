"""Closed-form settlement of trusted Fixed Service streams.

An FS controller that issues trusted and that nothing observes command
by command (no command log, online monitor or telemetry) records its
transactions and lets :meth:`repro.dram.channel.Channel.settle_trusted`
fold them into the DRAM counters.  These tests pin that closed form to
the per-command path it replaces (``Channel.issue_trusted`` of every
command, then ``finalize``):

* unit cases on the settlement itself: overlapping spans count their
  union, an end cycle between an ACT and its column counts the ACT and
  clips the open span, and nothing after the end counts;
* a property over random streams of spans and refreshes;
* a property over whole fast-engine runs on drawn DDR3-like parts, run
  once with a command log (per-command path) and once without (closed
  form).
"""

import dataclasses
import heapq

import pytest
from hypothesis import HealthCheck, event, given, reject, settings
from hypothesis import strategies as st

from repro.core.energy_opts import FsEnergyOptions
from repro.dram.bank import TimingViolation
from repro.dram.channel import Channel
from repro.dram.commands import Command, CommandType
from repro.dram.timing import DDR3_1600_X4, TimingParams
from repro.sim.config import SystemConfig
from repro.sim.runner import SchemeOptions, build_system
from repro.workloads.spec import suite_specs

from .engine_equivalence import MAX_CYCLES, dram_counters

P = DDR3_1600_X4
TRCD = P.tRCD
REF = CommandType.REFRESH
PDN = CommandType.POWER_DOWN
PUP = CommandType.POWER_UP


def span(act, rank=0, is_read=True):
    """A transaction record: ACT at ``act``, its column tRCD later."""
    return (act, act + TRCD, rank, is_read)


def rank_command(ctype, cycle, rank=0):
    return (cycle, cycle, rank, ctype)


#: Banks per rank in the per-command model: more than the spans that
#: can overlap (tRCD of them, each ACT and column on its own cycle).
BANKS = 16


def per_command(records, end, ranks=2):
    """The reference result: every command at or before ``end`` issued
    through ``issue_trusted`` in time order, then ``finalize(end)``.
    Transactions (listed in start order) get banks in turn, so
    overlapping spans never share one."""
    assert TRCD < BANKS
    channel = Channel(P, num_ranks=ranks, num_banks=BANKS)
    commands = []
    for index, (start, done, rank, kind) in enumerate(records):
        if done == start:
            commands.append(Command(kind, start, 0, rank))
            continue
        bank = index % BANKS
        commands.append(
            Command(CommandType.ACTIVATE, start, 0, rank, bank, row=index)
        )
        commands.append(Command(
            CommandType.COL_READ_AP if kind else CommandType.COL_WRITE_AP,
            done, 0, rank, bank, row=index,
        ))
    for command in sorted(commands, key=lambda c: c.cycle):
        if command.cycle <= end:
            channel.issue_trusted(command)
    channel.finalize(end)
    return channel


def closed_form(records, end, stops=(), ranks=2):
    """The closed form: the records on a ledger heap, settled at each
    of ``stops`` (cycles below ``end``), then finally at ``end``."""
    channel = Channel(P, num_ranks=ranks, num_banks=BANKS)
    ledger = list(records)
    heapq.heapify(ledger)
    for stop in sorted(stops):
        channel.settle_trusted(ledger, stop)
    channel.settle_trusted(ledger, end, final=True)
    assert not ledger
    channel.finalize(end)
    return channel


def counters(channel):
    return (
        channel.stat_commands, channel.stat_data_cycles,
        channel.stat_last_activity,
        [dataclasses.astuple(rank.energy) for rank in channel.ranks],
    )


def assert_settles_like_per_command(records, end, stops=()):
    expected = counters(per_command(records, end))
    assert counters(closed_form(records, end, stops)) == expected
    return expected


# ---------------------------------------------------------------------
# The settlement itself.
# ---------------------------------------------------------------------


class TestSettlement:
    def test_overlapping_spans_count_their_union(self):
        # [100, 111) and [105, 116) overlap on rank 0: 16 active cycles,
        # not 22.
        records = [span(100), span(105, is_read=False)]
        _, data, last, ranks = assert_settles_like_per_command(
            records, 200
        )
        energy = closed_form(records, 200).ranks[0].energy
        assert energy.cycles_active == 16
        assert energy.cycles_precharged == 200 - 16
        assert (energy.activates, energy.reads, energy.writes) == (2, 1, 1)
        assert data == 2 * P.tBURST
        assert last == 116

    def test_disjoint_spans_and_ranks(self):
        records = [span(10), span(40, rank=1), span(60, is_read=False)]
        assert_settles_like_per_command(records, 100)
        channel = closed_form(records, 100)
        assert channel.ranks[0].energy.cycles_active == 2 * TRCD
        assert channel.ranks[1].energy.cycles_active == TRCD

    def test_end_between_act_and_column(self):
        # The ACT at 100 issues, its column at 111 does not: one
        # command, no burst, and the rank stays active until the end.
        records = [span(50), span(100)]
        end = 105
        channel = closed_form(records, end)
        energy = channel.ranks[0].energy
        assert (energy.activates, energy.reads) == (2, 1)
        assert energy.cycles_active == TRCD + (end - 100)
        assert energy.total_cycles() == end
        assert channel.stat_commands == 3
        assert channel.stat_data_cycles == P.tBURST
        assert channel.stat_last_activity == 100
        assert_settles_like_per_command(records, end)

    def test_end_between_overlapping_acts_and_columns(self):
        records = [span(100), span(104, rank=0, is_read=False)]
        assert_settles_like_per_command(records, 106)
        assert_settles_like_per_command(records, 112)

    def test_nothing_after_the_end_counts(self):
        records = [span(10), span(300), rank_command(REF, 400)]
        channel = closed_form(records, 250)
        assert channel.ranks[0].energy.activates == 1
        assert channel.ranks[0].energy.refreshes == 0
        assert channel.stat_commands == 2
        assert channel.stat_last_activity == 10 + TRCD
        assert_settles_like_per_command(records, 250)

    def test_command_at_the_end_counts(self):
        records = [span(100)]
        assert_settles_like_per_command(records, 100)
        assert_settles_like_per_command(records, 100 + TRCD)

    def test_refresh_and_power_down(self):
        records = [
            span(10), rank_command(REF, 40), span(200, rank=1),
            rank_command(PDN, 60), rank_command(PUP, 150), span(170),
        ]
        channel = closed_form(records, 400)
        energy = channel.ranks[0].energy
        assert energy.refreshes == 1
        assert energy.cycles_power_down == 90
        assert energy.cycles_active == 2 * TRCD
        assert_settles_like_per_command(records, 400)
        # A power-down open at the end is clipped there.
        assert_settles_like_per_command(records, 100)

    def test_partial_settles_match_one_final_settle(self):
        records = [span(a, rank=a % 2) for a in range(0, 200, 7)] + [
            rank_command(REF, 201, rank=1),
        ]
        expected = assert_settles_like_per_command(records, 300)
        for stops in ((50,), (13, 14, 15, 100), tuple(range(0, 300, 9))):
            assert counters(closed_form(records, 300, stops)) == expected

    def test_folds_only_what_until_passed(self):
        channel = Channel(P, num_ranks=2)
        ledger = [span(100), rank_command(REF, 105, rank=1)]
        heapq.heapify(ledger)
        channel.settle_trusted(ledger, 108)
        # The span's column (111) is ahead of 108, and the refresh
        # behind it in start order waits with it.
        assert len(ledger) == 2 and channel.stat_commands == 0
        channel.settle_trusted(ledger, 111)
        assert not ledger and channel.stat_commands == 3

    def test_spans_must_be_trcd_long(self):
        ledger = [(100, 100 + TRCD + 1, 0, True)]
        with pytest.raises(AssertionError):
            Channel(P).settle_trusted(ledger, 500)


@st.composite
def streams(draw):
    """Random legal-shaped streams on two ranks: every command on its
    own bus cycle, refreshes outside their rank's open spans."""
    acts = draw(st.lists(st.integers(0, 400), min_size=1, max_size=24,
                         unique=True))
    records = []
    busy = set()
    for act in sorted(acts):
        if act in busy or act + TRCD in busy:
            continue
        busy.update((act, act + TRCD))
        records.append(span(act, draw(st.integers(0, 1)), draw(
            st.booleans()
        )))
    for cycle in draw(st.lists(st.integers(0, 450), max_size=4)):
        rank = draw(st.integers(0, 1))
        inside = any(
            r == rank and start <= cycle <= done
            for start, done, r, _ in records if done != start
        )
        if cycle in busy or inside:
            continue
        busy.add(cycle)
        records.append(rank_command(REF, cycle, rank))
    end = draw(st.integers(0, 460))
    stops = draw(st.lists(st.integers(0, end), max_size=6))
    return records, end, stops


@given(streams())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_random_streams_settle_like_per_command(stream):
    records, end, stops = stream
    assert_settles_like_per_command(records, end, stops)


# ---------------------------------------------------------------------
# Whole runs: closed form vs per-command path, on drawn parts.
# ---------------------------------------------------------------------


@st.composite
def parts(draw):
    """DDR3-like parts, drawn the way the cross-validation suite's
    ``TestRandomizedTimingParameters`` draws them."""
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


FS_SCHEMES = ["fs_rp", "fs_bp", "fs_np", "fs_np_ta", "fs_reordered_bp"]


def _fast_run(scheme, config, options, log_commands):
    """One fast-engine run: (result, DRAM counters, controller), or the
    ``TimingViolation`` it raised."""
    options = dataclasses.replace(options, log_commands=log_commands)
    system = build_system(
        scheme, config, suite_specs("mix1", config.num_cores), options,
        engine="fast",
    )
    try:
        result = system.run(max_cycles=MAX_CYCLES)
    except TimingViolation as exc:
        return exc
    return result, dram_counters(system.controller), system.controller


@given(
    params=parts(),
    scheme=st.sampled_from(FS_SCHEMES),
    cores=st.sampled_from([2, 4, 8]),
    refresh=st.booleans(),
    power_down=st.booleans(),
)
@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_closed_form_equals_per_command_path(params, scheme, cores,
                                             refresh, power_down):
    """Same rank energy counters on every rank, same channel counters,
    same ``RunResult`` — with and without a command log."""
    config = dataclasses.replace(
        SystemConfig(accesses_per_core=40, seed=3), timing=params
    ).with_cores(cores)
    options = SchemeOptions(
        refresh=refresh and scheme == "fs_rp",
        energy=FsEnergyOptions(power_down_idle=power_down),
    )
    try:
        logged = _fast_run(scheme, config, options, True)
    except RuntimeError:
        # A part the timetable builders refuse loudly (e.g. triple
        # alternation whose three slots cannot cover the same-bank gap).
        reject()
    settled = _fast_run(scheme, config, options, False)
    if isinstance(logged, Exception):
        # Both paths run checked here (e.g. reordered BP on a part its
        # geometry fails), so both must fail the same way.
        event(f"both raise {type(logged).__name__}")
        assert type(settled) is type(logged)
        assert str(settled) == str(logged)
        return
    event("compared")
    result, dram, controller = logged
    assert controller.command_log  # the per-command path ran
    closed_result, closed_dram, closed_controller = settled
    assert not closed_controller.command_log
    # Trusted and unobserved: the closed form ran.
    assert closed_controller._ledger is not None or \
        not closed_controller.trusted_issue
    assert closed_dram == dram
    assert closed_result == result
