"""Diversity-multiplexing-delay analysis for multihop ARQ relay networks.

The package splits into analysis layers that build on each other:

- tradeoff: antenna/topology/protocol types and the single-hop tradeoff
- asymptotic: high-SNR tradeoff curves of relay chains under ARQ
- finite_snr: outage, service times, deadline tails, window optimization
- netsim: Monte Carlo fading and queueing simulation
- numerics: the incomplete-gamma and box grid-search routines underneath
- cli: the mharq command built on all of the above
"""

__version__ = "0.1.0"

from .asymptotic import (
    FixedWindowOptimum,
    fbl_dmdt_3node,
    fixed_dmdt_3node,
    fixed_optimal_windows,
    nnode_fbl_bounds,
    nnode_vbl_dmdt,
    vbl_closed_form,
    vbl_dmdt_3node,
)
from .finite_snr import (
    ErrorBreakdown,
    FiniteSnrScenario,
    ServiceModel,
    UnstableQueueError,
    WindowInfeasibleError,
    WindowOptimum,
    deadline_exponent,
    deadline_probability,
    mean_service_time,
    message_error,
    optimize_windows,
    ostbc_outage,
    per_hop_outage,
)
from .netsim import (
    DelayExponentFit,
    SimConfig,
    SimResult,
    estimate_delay_exponent,
    run_network_sim,
)
from .numerics import (
    BoxDomain,
    Interval,
    lower_incomplete_gamma,
    minimize_box,
    regularized_lower_gamma,
)
from .tradeoff import (
    AntennaPair,
    ChannelAssumption,
    FixedArq,
    Topology,
    dmt,
)

__all__ = [
    "__version__",
    # tradeoff
    "AntennaPair",
    "ChannelAssumption",
    "FixedArq",
    "Topology",
    "dmt",
    # asymptotic
    "FixedWindowOptimum",
    "fbl_dmdt_3node",
    "fixed_dmdt_3node",
    "fixed_optimal_windows",
    "nnode_fbl_bounds",
    "nnode_vbl_dmdt",
    "vbl_closed_form",
    "vbl_dmdt_3node",
    # finite snr
    "ErrorBreakdown",
    "FiniteSnrScenario",
    "ServiceModel",
    "UnstableQueueError",
    "WindowInfeasibleError",
    "WindowOptimum",
    "deadline_exponent",
    "deadline_probability",
    "mean_service_time",
    "message_error",
    "optimize_windows",
    "ostbc_outage",
    "per_hop_outage",
    # netsim
    "DelayExponentFit",
    "SimConfig",
    "SimResult",
    "estimate_delay_exponent",
    "run_network_sim",
    # numerics
    "BoxDomain",
    "Interval",
    "lower_incomplete_gamma",
    "minimize_box",
    "regularized_lower_gamma",
]
