"""Exact Darboux polynomials and polynomial first integrals of natural
polynomial Hamiltonian systems H = 1/2 sum mu_i p_i^2 + V(q)."""

from .corpus import CORPUS, CorpusEntry, run_corpus
from .darboux import (
    DarbouxCertificate,
    InternalInvariantError,
    certificate_holds,
    cofactor_of,
    reversal_integral,
    verify_first_integral,
)
from .field import (
    RATIONALS,
    FieldElement,
    FieldKind,
    FieldMismatchError,
    FieldSpec,
    quad_gauss,
    sqrt_in_field,
)
from .hamsys import (
    GradingUnavailableError,
    NaturalHamiltonian,
    gamma_direction,
    is_homogeneous_potential,
    lie_derivative,
    load_system,
    make_system,
    tau,
    top_hamiltonian,
)
from .parsing import (
    ParseContext,
    ParseError,
    format_field_spec,
    format_poly,
    parse_field_spec,
    parse_poly,
)
from .poly import (
    MultiPoly,
    TooDenseError,
    VarSet,
    VarSetMismatchError,
    monomial_key,
)
from .search import (
    BranchCapExceededError,
    SearchReport,
    roots_in_field,
    search_darboux,
)
from .structure import (
    FactorWitness,
    TheoremReport,
    Verdict,
    check_theorem1,
    check_theorem2_pipeline,
    is_irreducible_natural_H,
    jacobian_independent,
)

# numcheck's names are loaded on first access (PEP 562), so the exact commands
# do not pay for compiling numcheck
_NUMCHECK_NAMES = (
    "NotRealEvaluableError",
    "drift",
)


def __getattr__(name: str):
    if name in _NUMCHECK_NAMES:
        from . import numcheck

        return getattr(numcheck, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = sorted([name for name in dir() if not name.startswith("_")] + list(_NUMCHECK_NAMES))
__version__ = "0.1.0"
