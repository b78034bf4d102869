"""Exact-arithmetic boson-fermion correspondence.

Fermionic Fock space (semi-infinite wedges with Clifford, infinite-wedge and
free-boson operators), bosonic Fock space (Schur and power-sum polynomials),
and a localized equivariant model of Hilbert-scheme fixed points labeled by
partitions, with the maps tau, eta, phi composing to the algebraic dictionary
sigma.
"""

from .boson import (
    BosonPolynomial,
    characters,
    hall_form,
    oscillator,
    parse_boson,
    power_sum,
    schur,
    schur_dual_jacobi_trudi,
    schur_expand,
    schur_jacobi_trudi,
)
from .correspondence import sigma, sigma_inverse
from .fermion import (
    ChargedMonomial,
    FermionState,
    GlMatrix,
    alpha,
    basis_state,
    chevalley_e,
    chevalley_f,
    gl_action,
    hermitian_form,
    parse_fermion,
    psi,
    psi_star,
    vacuum,
)
from .geometry import (
    DegreeUnderflow,
    LocalizedClass,
    NonDivisibleCoefficient,
    QuiverClass,
    bilinear_form,
    cup,
    eta,
    eta_inverse,
    euler_class,
    fundamental_class,
    geometric_boson,
    hecke_e,
    hecke_f,
    integrate,
    normalized_class,
    parse_quiver,
    phi,
    phi_inverse,
    point_variety_dimension,
    power_sum_class,
    pullback,
    pushforward,
    quiver_form,
    tau,
    weight_of,
)
from .partitions import (
    Partition,
    dimension_vector,
    hook_product,
    parse_partition,
    partitions_of,
    z_factor,
)
from .scalars import Rational, TLaurent, TScalar, parse_tscalar, rat

__version__ = "0.1.0"
