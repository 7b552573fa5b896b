"""Exact computations for sliced Kauffman bracket skein algebras:
Dehn-Thurston coordinate monoids, quantum tori, pants quantum traces,
the degeneration into a quantum torus, and the root-of-unity center and
PI-degree lattice arithmetic."""

from .arith import (
    RootOfUnity,
    LatticeBasis,
    chebyshev,
    even_sublattice,
    kernel_lattice,
    kernel_target,
    lambda_hat,
    lattice_index,
    pi_degree,
)
from .pants import (
    ComponentSpec,
    Decomposition,
    cross,
    decompose,
    lambda_contains,
    loop,
    nu_of_component,
    return_arc,
    twist_apply,
)
from .qtorus import (
    AntisymMatrix,
    QuantumTorus,
    TorusElement,
    elem_mul,
    lead_term,
    reflection_normalize,
    tilde_q,
    weyl_normalize,
)
from .qtrace import TraceTorus, check_thmbtr, lead_violation, pants_degree, trace_torus, utr_coord
from .ring import GroundElem, GroundRing
from .surface import (
    DTDatum,
    FatGraph,
    d_embed,
    face_split,
    glued_key,
    lambda_global,
    lambda_membership,
    phi_value,
    q_matrix,
    standard_datum,
    surface_torus,
)

__version__ = "0.1.0"
