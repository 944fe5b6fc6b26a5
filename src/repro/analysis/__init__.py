"""Analysis tools built on top of the micro-benchmarks.

:mod:`repro.analysis.logp` extracts LogP/LogGP model parameters from
the simulated networks, the methodology of the paper's related work
([Culler et al. 93] for the model, [Bell et al., IPDPS'03] for the
multi-network characterization).
"""

from repro.analysis.logp import LogGPParams, extract_loggp, loggp_report

__all__ = ["LogGPParams", "extract_loggp", "loggp_report"]
