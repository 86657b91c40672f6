"""Numerical toolkit for inverse mean curvature flow and mass bounds on
warped-product, asymptotically locally hyperbolic 3-manifolds.

The package instantiates the Kottler reference family, integrates the flow
of coordinate spheres while tracking the Hawking mass, extracts the mass
aspect from the compactification substitution, and runs the static
comparison chain against the equal-surface-gravity reference solution.
"""

from . import asymptotics, errors, flow, geometry, static_compare
from .asymptotics import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .flow import *  # noqa: F401,F403
from .geometry import *  # noqa: F401,F403
from .static_compare import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [name for module in (geometry, flow, asymptotics, static_compare, errors)
           for name in module.__all__]
