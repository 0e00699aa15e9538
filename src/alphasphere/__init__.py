"""Perturbed Dirichlet energies, Moebius calculus and rotationally
symmetric critical maps on the 2-sphere.

The package exports the names in the ``__all__`` of its layer modules,
which each module states once."""

from .mobius import *
from .quadrature import *
from .maps import *
from .energy import *
from .radial import *

__version__ = "0.1.0"
