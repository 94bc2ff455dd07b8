"""Material data, energy presets, loading program and scheme parameters.

Two energy presets are exposed and never mixed:

* ``"AT"`` — the computational phase-field energy: degraded elastic energy
  ``(z^2 + eta) * elastic`` plus the fracture term
  ``g_c * ((1 - z)^2 / (4 theta) + theta |grad z|^2)``.  Its dissipation
  constant is zero; irreversibility alone carries the rate-independence.
* ``"ANALYSIS"`` — degraded elastic energy plus the quadratic regularizer
  ``kappa_E / 2 * (z^2 + |grad z|^2)``, paired with the unidirectional
  dissipation ``kappa_R * ||dz||_L1`` on non-positive increments.

Units are mm / N / MPa throughout; time is a dimensionless ramp parameter.
"""

from __future__ import annotations

import math
import numbers
import weakref
from dataclasses import dataclass, field

import numpy as np

from .mesh import Mesh

PRESET_AT = "AT"
PRESET_ANALYSIS = "ANALYSIS"


class ModelConfigError(ValueError):
    """Raised for physically inconsistent material or scheme data."""


def voigt_elasticity(young_E: float, poisson_nu: float) -> np.ndarray:
    """Plane-strain Hooke matrix in Voigt form (engineering shear strain)."""
    if not (-1.0 < poisson_nu < 0.5):
        raise ModelConfigError(
            f"poisson_nu = {poisson_nu} outside (-1, 0.5); 0.5 is incompressible"
        )
    lam = young_E * poisson_nu / ((1.0 + poisson_nu) * (1.0 - 2.0 * poisson_nu))
    mu = young_E / (2.0 * (1.0 + poisson_nu))
    return np.array([[lam + 2.0 * mu, lam, 0.0], [lam, lam + 2.0 * mu, 0.0],
                     [0.0, 0.0, mu]])


def coercivity_gamma(C: np.ndarray) -> float:
    """Largest gamma with (C xi):xi >= gamma |xi|^2 over symmetric xi.

    With the engineering Voigt vector v = (xi_11, xi_22, 2 xi_12) one has
    (C xi):xi = v' C v and |xi|^2 = v' D v, D = diag(1, 1, 1/2), so gamma is
    the smallest eigenvalue of D^(-1/2) C D^(-1/2).
    """
    s = np.diag([1.0, 1.0, math.sqrt(2.0)])  # D^(-1/2)
    A = s @ C @ s
    return float(np.linalg.eigvalsh(0.5 * (A + A.T)).min())


@dataclass(eq=False, frozen=True)
class MaterialModel:
    """Elasticity and damage constants for one of the two energy presets;
    immutable once validated, with a read-only Voigt ``C``."""

    young_E: float
    poisson_nu: float
    eta: float = 1e-4
    g_c: float = 1.0
    theta: float = 0.025
    kappa_E: float = 1.0
    kappa_R: float = 1.0
    preset: str = PRESET_AT
    C: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.preset not in (PRESET_AT, PRESET_ANALYSIS):
            raise ModelConfigError(f"unknown preset {self.preset!r}")
        # NaN fails every comparison
        if not (0.0 < self.young_E < math.inf and 0.0 < self.eta < math.inf
                and 0.0 < self.theta < math.inf and 0.0 < self.g_c < math.inf
                and 0.0 < self.kappa_E < math.inf):
            raise ModelConfigError(
                f"young_E = {self.young_E}, eta = {self.eta}, theta = "
                f"{self.theta}, g_c = {self.g_c} and kappa_E = {self.kappa_E} "
                "must be positive and finite")
        if not 0.0 <= self.kappa_R < math.inf:
            raise ModelConfigError(f"kappa_R = {self.kappa_R} must be "
                                   "non-negative and finite")
        object.__setattr__(self, "C", voigt_elasticity(self.young_E,
                                                       self.poisson_nu))
        self.C.flags.writeable = False
        if coercivity_gamma(self.C) <= 0:
            raise ModelConfigError("elasticity matrix is not positive definite")

    @property
    def r_coefficient(self) -> float:
        """Dissipation constant entering R; zero for the AT preset."""
        return 0.0 if self.preset == PRESET_AT else self.kappa_R


DIRICHLET_RAMP = "DIRICHLET_RAMP"
TRACTION_RAMP = "TRACTION_RAMP"


@dataclass(eq=False, frozen=True)
class LoadProgram:
    """Linear-in-time loading: either a displacement ramp on the "loaded"
    node set (``ubar(t) = ubar_rate * t`` along ``direction``, which must
    be axis-aligned) or a boundary traction ramp of line density
    ``traction_rate * t`` on the same set.  Immutable once validated, with
    ``direction`` normalized; ``dataclasses.replace`` builds a variant."""

    mode: str
    T: float
    direction: tuple = (0.0, 1.0)
    ubar_rate: float = 0.0
    traction_rate: float = 0.0
    _f1_cache: tuple = field(default=(), init=False, repr=False)
    _dirichlet_cache: tuple = field(default=(), init=False, repr=False)

    def __post_init__(self):
        if self.mode not in (DIRICHLET_RAMP, TRACTION_RAMP):
            raise ModelConfigError(f"unknown load mode {self.mode!r}")
        # NaN fails every comparison
        if not (0.0 < self.T < math.inf
                and -math.inf < self.ubar_rate < math.inf
                and -math.inf < self.traction_rate < math.inf):
            raise ModelConfigError(
                f"T = {self.T} must be positive and finite, ubar_rate = "
                f"{self.ubar_rate} and traction_rate = {self.traction_rate} "
                "finite")
        try:
            x, y = map(float, self.direction)
        except (TypeError, ValueError):  # not a pair of numbers
            x = y = math.nan
        n = math.sqrt(x * x + y * y)  # not hypot: overflow fails
        if not 0.0 < n < math.inf:
            raise ModelConfigError(f"load direction {self.direction!r} must "
                                   "be a nonzero finite pair of numbers")
        x, y = x / n, y / n
        if self.mode == DIRICHLET_RAMP and abs(max(abs(x), abs(y)) - 1.0) > 1e-12:
            raise ModelConfigError("displacement control requires an "
                                   "axis-aligned direction")
        object.__setattr__(self, "direction", (x, y))

    def ubar(self, t: float) -> float:
        return self.ubar_rate * t

    def _per_mesh(self, name: str, mesh: Mesh, build):
        """``build(mesh)``, kept in the field ``name`` for the last mesh."""
        last = getattr(self, name)
        if not (last and last[0]() is mesh):
            last = (weakref.ref(mesh), build(mesh))
            object.__setattr__(self, name, last)
        return last[1]

    # -- Dirichlet data ---------------------------------------------------
    def dirichlet_dofs(self, mesh: Mesh):
        """Constrained displacement dofs and their values at time t.

        "clamped" nodes are fixed in both components.  In displacement
        control the "loaded" nodes are constrained in the load direction
        only, which ``__post_init__`` has checked to be axis-aligned.  The
        mask is read-only and kept, with the loaded dofs, for the last
        mesh; ``values(t)`` returns a fresh array each call.
        """
        mask, loaded_dofs, sign = self._per_mesh(
            "_dirichlet_cache", mesh, self._build_dirichlet)

        def values(t: float) -> np.ndarray:
            vals = np.zeros(mask.size)
            if loaded_dofs.size:
                vals[loaded_dofs] = sign * self.ubar(t)
            return vals

        return mask, values

    def _build_dirichlet(self, mesh: Mesh) -> tuple:
        mask = np.zeros(2 * mesh.n_nodes, dtype=bool)
        clamped = mesh.boundary_sets["clamped"]
        mask[2 * clamped] = True
        mask[2 * clamped + 1] = True
        loaded_dofs = np.empty(0, dtype=np.int64)
        sign = 1.0
        if self.mode == DIRICHLET_RAMP:
            x, y = self.direction
            axis = int(abs(y) > abs(x))
            sign = math.copysign(1.0, self.direction[axis])
            loaded_dofs = 2 * mesh.boundary_sets["loaded"] + axis
            mask[loaded_dofs] = True
        mask.flags.writeable = False
        return mask, loaded_dofs, sign

    # -- Traction data ----------------------------------------------------
    def force_rate_vector(self, mesh: Mesh) -> np.ndarray:
        """Nodal force vector f1 with f(t) = t * f1 (zero in Dirichlet mode).

        The traction line density is spread over the edges of the "loaded"
        boundary chain with the trapezoidal (edge-lumped) rule, which is
        consistent for the bilinear elements' linear edge restriction.
        The array is read-only and kept for the last mesh.
        """
        return self._per_mesh("_f1_cache", mesh, self._build_f1)

    def _build_f1(self, mesh: Mesh) -> np.ndarray:
        f1 = np.zeros(2 * mesh.n_nodes)
        if self.mode != TRACTION_RAMP or self.traction_rate == 0.0:
            f1.flags.writeable = False
            return f1
        loaded = mesh.boundary_sets["loaded"]
        pts = mesh.nodes[loaded]
        # order the chain along its dominant coordinate
        spread = pts.max(axis=0) - pts.min(axis=0)
        along = int(np.argmax(spread))
        order = np.argsort(pts[:, along], kind="stable")
        chain = loaded[order]
        dx, dy = self.direction
        diff = mesh.nodes[chain[1:]] - mesh.nodes[chain[:-1]]
        # a per-row dot product, rounded like np.linalg.norm of one edge
        seg = np.sqrt((diff[:, None, :] @ diff[:, :, None]).ravel())
        # both ends of each edge in chain order: every entry receives its
        # additions in the order of an edge-by-edge loop
        ends = np.column_stack([chain[:-1], chain[1:]]).ravel()
        np.add.at(f1, 2 * ends, np.repeat(0.5 * seg * self.traction_rate * dx, 2))
        np.add.at(f1, 2 * ends + 1, np.repeat(0.5 * seg * self.traction_rate * dy, 2))
        if loaded.size == 1:
            # point load fallback: rate interpreted directly as a force
            f1[2 * loaded[0]] = self.traction_rate * dx
            f1[2 * loaded[0] + 1] = self.traction_rate * dy
        f1.flags.writeable = False
        return f1

    def force_vector(self, mesh: Mesh, t: float) -> np.ndarray:
        return t * self.force_rate_vector(mesh)


@dataclass(eq=False)
class NormSpec:
    """Norm used by the arc-length ball: L^alpha of the interpolated field
    (2x2 Gauss evaluation) or the discrete H1 norm."""

    kind: str = "lalpha"  # "lalpha" | "h1"
    alpha: float = 4.0

    def __post_init__(self):
        if self.kind not in ("lalpha", "h1"):
            raise ModelConfigError(f"unknown norm kind {self.kind!r}")
        # alpha = 1 would make the dual exponent alpha / (alpha - 1) infinite
        if self.kind == "lalpha" and not 1.0 < self.alpha < math.inf:
            raise ModelConfigError(f"alpha = {self.alpha} must lie in (1, inf)")

    @property
    def dual_is_surrogate(self) -> bool:
        """True when the dual distance is only an L2 surrogate (H1 ball)."""
        return self.kind == "h1"


@dataclass(eq=False)
class SchemeParams:
    """All tolerances and controls of the adaptive scheme."""

    rho: float
    T: float
    norm_V: NormSpec = field(default_factory=NormSpec)
    tol_am: float = 1e-6
    tol_newton: float = 1e-8
    tol_constraint: float = 1e-8
    max_am_iters: int = 500
    snapshot_stride: int = 10
    store_all_snapshots: bool = False

    def __post_init__(self):
        for name in ("rho", "T", "tol_am", "tol_newton", "tol_constraint"):
            if not 0.0 < getattr(self, name) < math.inf:  # NaN fails too
                raise ModelConfigError(f"{name} = {getattr(self, name)} must "
                                       "be positive and finite")
        for name in ("max_am_iters", "snapshot_stride"):
            count = getattr(self, name)  # int first: the ABC check is slow
            if not isinstance(count, (int, numbers.Integral)) or count < 1:
                raise ModelConfigError(f"{name} = {count!r} must be an "
                                       "integer of at least 1")


def degradation(z, eta: float):
    """Elastic degradation factor z^2 + eta."""
    return np.square(z) + eta


def fracture_density(z, grad_z_sq, model: MaterialModel):
    """Pointwise fracture/regularization energy density.

    ``grad_z_sq`` is |grad z|^2 at the evaluation points.
    """
    z = np.asarray(z, dtype=float)
    if model.preset == PRESET_AT:
        return model.g_c * ((1.0 - z) ** 2 / (4.0 * model.theta)
                            + model.theta * grad_z_sq)
    return 0.5 * model.kappa_E * (z ** 2 + grad_z_sq)


def dissipation_R(dz: np.ndarray, model: MaterialModel, weights: np.ndarray,
                  tol: float = 1e-8) -> float:
    """Unidirectional dissipation of a nodal increment field.

    Returns ``kappa_R * sum_i w_i |dz_i|`` when ``dz <= tol`` everywhere and
    ``inf`` otherwise (infeasibility is a value, not an error).  The AT
    preset has zero dissipation constant, so feasible increments cost 0.
    """
    dz = np.asarray(dz, dtype=float)
    if dz.size and float(dz.max(initial=-np.inf)) > tol:
        return math.inf
    return float(model.r_coefficient * np.dot(weights, np.abs(dz)))
