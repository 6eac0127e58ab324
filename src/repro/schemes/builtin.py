"""The paper's scheme family, registered declaratively (Table 2).

Every design point the figures compare is one :class:`SchemeSpec` —
partitioning level, pipeline family, controller classes for both
engines, and the published ``l``/``Q`` solutions.  Registration order
is the legacy ``SCHEMES`` tuple order, which the CLI help and test
parametrization present to humans.
"""

from __future__ import annotations

from .registry import REGISTRY
from .spec import SchemeSpec

_FRFCFS = "repro.controllers.frfcfs.FrFcfsController"
_FAST_FRFCFS = "repro.sim.fastpath.FastFrFcfsController"
_FCFS = "repro.controllers.fcfs.FcfsController"
_TP = "repro.controllers.tp.TemporalPartitioningController"
_FAST_TP = "repro.sim.fastpath.FastTpController"
_FS = "repro.core.fs_controller.FixedServiceController"
_FAST_FS = "repro.sim.fastpath.FastFixedServiceController"
_FS_REORDERED = "repro.core.fs_reordered.ReorderedBpController"
_FAST_FS_REORDERED = "repro.sim.fastpath.FastReorderedBpController"
_FS_MC = "repro.sim.multichannel.MultiChannelFsController"
_FAST_FS_MC = "repro.sim.fastpath.FastMultiChannelFsController"

#: The built-in design points, in presentation order.
BUILTIN_SPECS = (
    SchemeSpec(
        name="baseline",
        description="non-secure FR-FCFS with write drain (open page)",
        family="frfcfs", partitioning="none",
        controller=_FRFCFS, fast_controller=_FAST_FRFCFS,
        supports_refresh=True, secure=False,
    ),
    SchemeSpec(
        name="fcfs",
        description="strict FCFS, closed page (reference only)",
        family="fcfs", partitioning="none",
        controller=_FCFS, secure=False,
        # Reference-only pedagogical controller: no fast-engine class
        # and no per-domain service contract to state a two-world
        # certification claim about.
        certifiable=False,
    ),
    SchemeSpec(
        name="channel_part",
        description="private channel per domain, FR-FCFS within "
                    "(Section 4.1, <= 4 threads)",
        family="frfcfs", partitioning="channel",
        controller=_FRFCFS, fast_controller=_FAST_FRFCFS,
    ),
    SchemeSpec(
        name="tp_bp",
        description="Temporal Partitioning, bank-partitioned "
                    "(Wang et al., HPCA 2014)",
        family="tp", partitioning="bank",
        controller=_TP, fast_controller=_FAST_TP,
    ),
    SchemeSpec(
        name="tp_np",
        description="Temporal Partitioning, no spatial partitioning",
        family="tp", partitioning="none",
        controller=_TP, fast_controller=_FAST_TP,
    ),
    SchemeSpec(
        name="fs_rp",
        description="Fixed Service, rank partitioning "
                    "(periodic data, l=7)",
        family="fs", partitioning="rank", sharing="rank",
        controller=_FS, fast_controller=_FAST_FS,
        expected_l=7, expected_q=56,
        supports_refresh=True, supports_prefetch=True,
        fixed_service=True,
    ),
    SchemeSpec(
        name="fs_rp_mc",
        description="Fixed Service, rank partitioning, one controller "
                    "per channel (full 32-core target)",
        family="fs_multichannel", partitioning="rank", sharing="rank",
        controller=_FS_MC, fast_controller=_FAST_FS_MC,
        expected_l=7, multi_channel=True, fixed_service=True,
    ),
    SchemeSpec(
        name="fs_bp",
        description="Fixed Service, bank partitioning "
                    "(periodic RAS, l=15)",
        family="fs", partitioning="bank", sharing="bank",
        controller=_FS, fast_controller=_FAST_FS,
        expected_l=15, expected_q=120,
        supports_prefetch=True, fixed_service=True,
    ),
    SchemeSpec(
        name="fs_reordered_bp",
        description="Fixed Service, reordered bank partitioning "
                    "(Q=63 for 8 threads)",
        family="fs_reordered", partitioning="bank",
        controller=_FS_REORDERED,
        fast_controller=_FAST_FS_REORDERED,
        expected_q=63, fixed_service=True,
    ),
    SchemeSpec(
        name="fs_np",
        description="Fixed Service, no partitioning "
                    "(periodic RAS, l=43)",
        family="fs", partitioning="none", sharing="none",
        controller=_FS, fast_controller=_FAST_FS,
        expected_l=43, expected_q=344,
        supports_prefetch=True, fixed_service=True,
    ),
    SchemeSpec(
        name="fs_np_ta",
        description="Fixed Service, triple alternation "
                    "(15-cycle slots, Q=360)",
        family="fs_ta", partitioning="none",
        controller=_FS, fast_controller=_FAST_FS,
        expected_l=15, expected_q=360, fixed_service=True,
    ),
)

for _spec in BUILTIN_SPECS:
    REGISTRY.register(_spec)

__all__ = ["BUILTIN_SPECS"]
