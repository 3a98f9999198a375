"""Extensions between completely splittable irreducibles, with verification.

A closed-form oracle answers the dimension of the extension space between
irreducible GL(n)-modules whose first highest weight is p-restricted and
completely splittable, together with its symmetric-group counterpart for
Specht-module heads.  An independent engine rebuilds the symmetric-group
side from scratch over GF(p) (tabloids, polytabloids, the invariant form)
and the harness sweeps both against each other.
"""

from types import ModuleType as _ModuleType

from ._version import __version__
from .combinatorics import (
    Partition,
    RemovableRows,
    Weight,
    as_partition,
    chi,
    conjugate,
    degree,
    dominates,
    enum_dominant_weights,
    enum_dominant_weights_bounded,
    enum_partitions,
    has_rim_p_hook,
    hat,
    height,
    is_big_partition,
    is_big_weight,
    is_cs_partition,
    is_cs_weight,
    is_dominant,
    is_p_regular,
    is_p_restricted,
    normalize_pair,
    pad,
    psi,
    removable_rows,
    strictly_dominates,
    tilde,
    weight_leq,
    weight_lt,
)
from .errors import ScopeError, ScopeReason
from .harness import Report, SweepRow, sweep_comb, sweep_sym
from .oracle import (
    ExtAnswer,
    RadPrediction,
    ext1_gl,
    ext1_sym,
    rad_specht_prediction,
    rad_weyl_prediction,
)
from .specht import (
    HomSpace,
    SpechtData,
    SymRep,
    gen_action_on_tabloids,
    hom_rad_to_simple,
    hom_space,
    image_equals_rad,
    polytabloid,
    rad_dim,
    rad_subrep,
    simple_head,
    specht_data,
    standard_tableaux,
    tabloid_basis,
)

__all__ = [name for name in dir()
           if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
