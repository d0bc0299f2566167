"""Haar-induced invariant measures on multimode Gaussian pure states.

Covariance-matrix representation and Williamson spectra, Haar sampling of
homogeneous Gaussian unitaries, the closed-form symplectic-eigenvalue
densities under energy constraints, and Monte Carlo verification of those
densities under the exact energy constraint.
"""

__version__ = "0.1.0"

from .symplectic import (
    Bipartition,
    GaussianPureState,
    SymplecticSpectrum,
    canonical_state,
    entanglement_entropy,
    reduced_covariance,
    reduced_spectrum,
    symplectic_form,
    tmsv_state,
    williamson_spectrum,
)
from .haar import (
    EulerGaussianUnitary,
    apply_to_vacuum,
    euler_to_symplectic,
    passive_symplectic,
    sample_haar_unitary,
    sample_homogeneous_gaussian_unitary,
    sample_lambda,
    squeeze_symplectic,
)
from .densities import (
    EnergyConstraint,
    balanced_sum_law,
    density_2p2,
    density_balanced,
    density_submanifold_energy,
    energy_mixing_parameters,
    g_2p2,
    log_density_balanced,
    log_density_submanifold,
    log_density_unconstrained,
    mean_energy,
    mean_energy_from_state,
)
from .montecarlo import (
    HistogramReport,
    g_constraint_mc,
    sample_balanced,
    sample_density_2p2,
    sample_submanifold_energy,
    verify_constrained_density,
)

__all__ = [
    "__version__",
    "Bipartition",
    "GaussianPureState",
    "SymplecticSpectrum",
    "canonical_state",
    "entanglement_entropy",
    "reduced_covariance",
    "reduced_spectrum",
    "symplectic_form",
    "tmsv_state",
    "williamson_spectrum",
    "EulerGaussianUnitary",
    "apply_to_vacuum",
    "euler_to_symplectic",
    "passive_symplectic",
    "sample_haar_unitary",
    "sample_homogeneous_gaussian_unitary",
    "sample_lambda",
    "squeeze_symplectic",
    "EnergyConstraint",
    "balanced_sum_law",
    "density_2p2",
    "density_balanced",
    "density_submanifold_energy",
    "energy_mixing_parameters",
    "g_2p2",
    "log_density_balanced",
    "log_density_submanifold",
    "log_density_unconstrained",
    "mean_energy",
    "mean_energy_from_state",
    "HistogramReport",
    "g_constraint_mc",
    "sample_balanced",
    "sample_density_2p2",
    "sample_submanifold_energy",
    "verify_constrained_density",
]
