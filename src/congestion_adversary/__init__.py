"""Singleton congestion games with a budget-constrained adversary.

Exact-rational solvers for approximate pure Nash equilibria: an incremental
insertion solver that always reaches a ~1.1974-approximate equilibrium, an
instance-optimal factor solver based on load-shape enumeration, and a
brute-force oracle for cross-validation at small scale.
"""

from . import core, documents, optimal, oracle, solver
from .core import *  # noqa: F401,F403
from .documents import *  # noqa: F401,F403
from .optimal import *  # noqa: F401,F403
from .oracle import *  # noqa: F401,F403
from .solver import *  # noqa: F401,F403

__version__ = "0.1.0"

# Each module's __all__ is its public list; the package exports their union.
__all__ = [*core.__all__, *documents.__all__, *optimal.__all__, *oracle.__all__, *solver.__all__]
