"""Exact emptiness certificates and Waldschmidt-constant bounds for fat-point
linear systems at generic points, with a Monte Carlo rank oracle over large
prime fields."""

from .core import (
    AffineValue,
    EventualSign,
    FatPointSystem,
    Run,
    Sign,
    binomial,
    cremona_k,
    eventual_sign,
    expected_dimension,
)
from .reduction import (
    Certificate,
    ReductionStep,
    certificate_from_json,
    certificate_to_json,
    cremona_step,
    degree_drop_step,
    evain_certificate,
    merge_empty,
    prove_empty,
    prove_with_script,
    reduce_full,
    verify_certificate,
)
from .facts import Profile, WaldschmidtFact, catalog, fact_from_certificate
from .bounds import (
    BoundFact,
    CheckReport,
    ProofTree,
    alpha_generic,
    chudnovsky_check,
    containment_threshold,
    decomposition_bound,
    hh_check,
    regularity_generic,
    replay_proof_tree,
    waldschmidt_lower_bound,
)

__version__ = "0.1.0"

# The oracle needs numpy, which the symbolic commands never use; its names
# are loaded on first access (PEP 562) and then kept in the module globals.
_ORACLE_NAMES = (
    "OracleConfig",
    "OracleReport",
    "alpha_symbolic_power",
    "linear_system_dim",
    "waldschmidt_upper_estimate",
)

# a star import gives the same names as when the oracle was imported eagerly
__all__ = [name for name in globals() if not name.startswith("_")] + list(_ORACLE_NAMES)


def __getattr__(name):
    if name not in _ORACLE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import oracle

    value = globals()[name] = getattr(oracle, name)
    return value
