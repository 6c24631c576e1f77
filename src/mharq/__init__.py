"""Diversity-multiplexing-delay analysis for multihop ARQ relay networks.

The package splits into analysis layers that build on each other:

- tradeoff: antenna/topology/protocol types and the single-hop tradeoff
- asymptotic: high-SNR tradeoff curves of relay chains under ARQ
- finite_snr: outage, service times, deadline tails, window optimization
- netsim: Monte Carlo fading and queueing simulation
- numerics: the incomplete gamma and the unit-box grid search underneath
- cli: the mharq command built on all of the above

Import every name from its submodule; the package root holds only
__version__.
"""

__version__ = "0.1.0"
