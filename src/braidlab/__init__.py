"""Dehornoy ordering on the 3-strand braid group and the left orderings of
free groups obtained by restricting it to the commutator subgroup and to the
kernels K_n.

All values are immutable and all operations pure, except that handle
reduction without a ``budget`` reads ``BRAIDLAB_BUDGET`` from the environment;
everything here may be shared freely across threads.
"""

from . import braid, burau, dehornoy, dynnikov, exotic, freegroup, probe
from .braid import *
from .burau import *
from .dehornoy import *
from .dynnikov import *
from .exotic import *
from .freegroup import *
from .probe import *

__version__ = "0.1.0"

# Each public name is listed once, in the __all__ of its module.
__all__ = sorted(
    name
    for module in (braid, burau, dehornoy, dynnikov, exotic, freegroup, probe)
    for name in module.__all__
)
