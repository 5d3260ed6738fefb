"""Pooling by unbalanced optimal transport.

The package solves a small unbalanced transport problem per input matrix
and pools features through the row-normalized plan. Limiting choices of
the objective weights recover mean, max and attention pooling, which
makes the operator a differentiable interpolation between the classic
pooling families.
"""

from . import learning, numerics, pooling, solvers
from .learning import *  # noqa: F401,F403
from .numerics import *  # noqa: F401,F403
from .pooling import *  # noqa: F401,F403
from .solvers import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [*learning.__all__, *numerics.__all__, *pooling.__all__, *solvers.__all__,
           "__version__"]
