"""The decision-procedure stack: one ``decide()`` with certificates.

The paper's solvability knowledge lives in three places — closed-form
theorems (:mod:`repro.core.solvability`), certified reductions
(:mod:`repro.algorithms.reductions` via the universe graph), and
exhaustive exploration (:mod:`repro.shm.engine` /
:mod:`repro.topology.decision`).  This package stacks them into one
pluggable pipeline, cheapest first:

1. closed forms (Theorems 9-11, Lemmas 1/5, Corollary 5);
2. value-padding arguments over the kernel lattice;
3. reduction closure along the universe graph's certified edges;
4. bounded empirical decision: exhaustive search for r-round
   comparison-based IIS decision maps, engine-replayed before being
   trusted.

Every non-OPEN verdict carries a typed, machine-checkable
:class:`Certificate` that a standalone ``check()`` replays, and verdicts
persist in a :class:`CertificateCache` inside the universe store file so
repeat decisions are O(1).  CLI front-ends: ``python -m repro decide N M
L U`` and ``python -m repro universe build --close-open``.
"""

from .cache import CertificateCache
from .certificates import (
    Certificate,
    DecisionMapCertificate,
    PaddingCertificate,
    ReductionPathCertificate,
    TheoremCertificate,
    certificate_from_payload,
    certificate_id,
    check_certificate_payload,
    decision_map_algorithm,
    replay_decision_map,
)
from .pipeline import DecisionPipeline, Verdict, cache_entry, decide
from .procedures import (
    CloseOpenReport,
    DecisionBudget,
    ProcedureResult,
    canonical_key,
    close_open,
    closed_form,
    empirical,
    reduction_closure,
    structural_verdict,
    value_padding,
)

__all__ = [
    "Certificate",
    "CertificateCache",
    "CloseOpenReport",
    "DecisionBudget",
    "DecisionMapCertificate",
    "DecisionPipeline",
    "PaddingCertificate",
    "ProcedureResult",
    "ReductionPathCertificate",
    "TheoremCertificate",
    "Verdict",
    "cache_entry",
    "canonical_key",
    "certificate_from_payload",
    "certificate_id",
    "check_certificate_payload",
    "close_open",
    "closed_form",
    "decide",
    "decision_map_algorithm",
    "empirical",
    "reduction_closure",
    "replay_decision_map",
    "structural_verdict",
    "value_padding",
]
