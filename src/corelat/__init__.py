"""Atomic lengths on affine Weyl groups, core partitions, and Pell-type
solution-set parametrisations, all in exact arithmetic."""

from .dynkin import AffineTypeId, TypeData, UnknownType, NotInRootSpan, lookup_type
from .atomic import (
    LatticeVector,
    DominantWeight,
    atomic_length0,
    atomic_length_i,
    extended_atomic_length,
    enumerate_atomic,
    height,
    norm_sq,
)
from .weyl import ExtGrassElement, enumerate_extended, extended_image, lascoux_orbit
from .cores import (
    charge_of_core,
    core_from_charge,
    enumerate_partitions,
    is_d_core,
    bar_core_from_lattice,
    d4flat_from_lattice,
)
from .diophantine import solve_diagonal, orbit_partition, is_action_free
from .param import get_case, verify_case, a3_strata, a3_conjecture_check

__version__ = "0.1.0"
