"""Section 2.2 / 5.2: covert-channel elimination.

Not a numbered figure, but the paper's security motivation: a
contention covert channel (sender modulates memory intensity, receiver
times its own probes) transmits cleanly through the non-secure baseline
and dies under FS.  Regenerates the received signal for both.
"""

from repro.analysis.covert import run_covert_channel
from repro.analysis.report import format_table

from .common import CONFIG, once, publish

BITS = (1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0, 1)


def test_covert_channel_elimination(benchmark):
    def measure():
        return (
            run_covert_channel("baseline", BITS, config=CONFIG),
            run_covert_channel("fs_rp", BITS, config=CONFIG),
        )

    base, fs = once(benchmark, measure)
    rows = []
    for i, bit in enumerate(BITS):
        rows.append([
            i, bit,
            round(base.window_means[i], 1), base.decoded_bits[i],
            round(fs.window_means[i], 1), fs.decoded_bits[i],
        ])
    # Latencies are each window's excess over a run with the sender
    # silent (same receiver probes).
    publish("covert_channel", format_table(
        ["window", "sent", "baseline excess", "baseline decoded",
         "FS excess", "FS decoded"],
        rows,
        title=(
            "Covert channel: baseline BER "
            f"{base.bit_error_rate:.2f} (swing "
            f"{base.signal_swing:.1f} cycles) vs FS BER "
            f"{fs.bit_error_rate:.2f} (swing {fs.signal_swing:.1f})"
        ),
    ))
    assert base.bit_error_rate <= 0.15
    assert base.signal_swing > 1.0
    assert fs.bit_error_rate >= 0.3
    assert fs.signal_swing < 1.0
