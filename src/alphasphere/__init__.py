"""Perturbed Dirichlet energies, Moebius calculus and rotationally
symmetric critical maps on the 2-sphere."""

from .mobius import (
    DegenerateMatrixError,
    GRAD_LOG_CHI_L2_REGIME_CONSTANT,
    MobiusElement,
    MobiusSVD,
    SpherePoint,
    StereoPoint,
    chi,
    chi_values,
    grad_log_chi,
    grad_log_chi_l2_bound,
    mobius_apply,
    mobius_svd,
    norm_grad_log_chi_L2,
    sphere_to_stereo,
    stereo_to_sphere,
)
from .quadrature import (
    QuadratureConvergenceError,
    adaptive_gauss_legendre,
)
from .maps import (
    ConjugationMap,
    ConstantMap,
    EnergyReport,
    MapEvaluator,
    MobiusMap,
    NonIntegerDegreeWarning,
    PullbackMap,
    QuadratureGrid,
    RadialMap,
    degree,
    energy_report,
    identity_map,
    make_grid,
    mobius_map,
    pullback,
)
from .energy import (
    BoundCheck,
    DilationEnergyResult,
    GROWTH_THETA_CONSTANT,
    RegimeError,
    XI_SIGMA_LARGE_CONSTANT,
    XI_SIGMA_SMALL_CONSTANT,
    alpha_energy,
    check_growth,
    check_xi_lower_bounds,
    d_energy_d_loglambda,
    dilation_energy,
    e_alpha_lambda,
    eaclose_gap,
    energy_floor,
    G_and_Gprime,
)
from .radial import (
    RadialProfile,
    ShootFailedError,
    SolveResult,
    SplitUnavailableError,
    annulus_split,
    load_profile,
    minimize_radial,
    radial_energy,
    radial_energy_between,
    radial_residual,
    save_profile,
    shoot_radial,
)

__version__ = "0.1.0"
