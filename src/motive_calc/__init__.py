"""Exact calculator for the correspondence algebra of elliptic modular
surfaces and threefolds: group-ring idempotents, cusp-fiber lattices,
projector certificates, motive decomposition and filtration reports.

Everything is computed over exact rationals; no floating point anywhere.
"""

__version__ = "0.1.0"

from .exact import Rational, RatMatrix, SingularMatrixError, DegreeError
from .levels import LevelInvariants, LevelTooSmallError, cusp_count, level_invariants, local_multiplicity

__all__ = [
    "Rational",
    "RatMatrix",
    "SingularMatrixError",
    "DegreeError",
    "LevelInvariants",
    "LevelTooSmallError",
    "cusp_count",
    "level_invariants",
    "local_multiplicity",
    "run_report",
    "evaluate",
    "surface_certificate",
    "threefold_certificate",
    "__version__",
]


def __getattr__(name):
    # the heavyweight modules load lazily so `import motive_calc` stays cheap
    if name == "run_report":
        from .report import run_report

        return run_report
    if name == "evaluate":
        from .dsl import evaluate

        return evaluate
    if name == "surface_certificate":
        from .surface import surface_certificate

        return surface_certificate
    if name == "threefold_certificate":
        from .threefold import threefold_certificate

        return threefold_certificate
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
