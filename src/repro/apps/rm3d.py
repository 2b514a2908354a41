"""RM3D: the 3-D Richtmyer--Meshkov compressible-turbulence kernel.

The 3-D analogue of :mod:`repro.apps.rm2d`, completing 2-D/3-D parity for
all four kernel families (tp/bl/sc/rm): a Mach ~1.5 shock in light gas
runs into a doubly-periodically perturbed density interface to heavy gas
inside a closed box.  Reflective walls re-shock the interface repeatedly,
so the high-gradient set (shock fronts plus the growing 3-D finger/bubble
structure of the instability) wanders irregularly — the *seemingly
random* trace family of the paper's Figure 4, now with genuinely 3-D
refined regions whose surface grows much faster than the 2-D analogue's.

We solve the 3-D compressible Euler equations

    U_t + div F(U) = 0,   U = (rho, rho u, rho v, rho w, E)

with a first-order Rusanov (local Lax--Friedrichs) finite-volume scheme,
written axis-generically (one flux sweep per direction).

Registered through the unified component registry
(``@register("app", "rm3d")``) like any third-party kernel would be: the
engine, CLI, sweeps and the spec graph pick it up purely by name.
"""

from __future__ import annotations

import numpy as np

from ..registry import register
from .base import ShadowApplication

__all__ = ["RichtmyerMeshkov3D"]


@register(
    "app",
    "rm3d",
    description="3-D Richtmyer--Meshkov instability, seemingly random trace",
)
class RichtmyerMeshkov3D(ShadowApplication):
    """Shocked perturbed interface in a closed 3-D box (Euler / Rusanov).

    Parameters
    ----------
    shape :
        Shadow-grid resolution (three extents; the domain is the unit
        cube).
    dt :
        Coarse-step time increment (sub-cycled to the CFL bound).
    gamma :
        Ratio of specific heats.
    atwood :
        Interface density contrast ``(rho2 - rho1) / (rho2 + rho1)``.
    perturbation_modes :
        Number of sinusoidal modes per transverse direction seeding the
        interface perturbation.
    seed :
        Seed for the perturbation phases/amplitudes.
    """

    name = "rm3d"
    ndim = 3

    def __init__(
        self,
        shape: tuple[int, int, int] = (48, 48, 48),
        dt: float = 0.006,
        gamma: float = 1.4,
        atwood: float = 0.5,
        perturbation_modes: int = 3,
        seed: int = 2004,
    ) -> None:
        if len(shape) != 3:
            raise ValueError("RichtmyerMeshkov3D needs a 3-d shadow grid")
        if min(shape) < 16:
            raise ValueError("shadow grid too small for a shock problem")
        if not 0.0 < atwood < 1.0:
            raise ValueError("atwood number must be in (0, 1)")
        self._shape = tuple(int(s) for s in shape)
        self._dt = float(dt)
        self._gamma = float(gamma)
        self._time = 0.0
        self._h = tuple(1.0 / s for s in self._shape)
        rng = np.random.default_rng(seed)
        axes = [(np.arange(s) + 0.5) / s for s in self._shape]
        X, Y, Z = np.meshgrid(*axes, indexing="ij")
        # Perturbed interface position x_i(y, z): a random superposition
        # of low transverse modes, the 3-D generalization of RM2D's x_i(y).
        interface = np.full(self._shape[1:], 0.55)
        y, z = axes[1], axes[2]
        for my in range(perturbation_modes + 1):
            for mz in range(perturbation_modes + 1):
                if my == 0 and mz == 0:
                    continue
                amp = rng.uniform(0.002, 0.008)
                phase_y = rng.uniform(0, 2 * np.pi)
                phase_z = rng.uniform(0, 2 * np.pi)
                interface += amp * np.sin(
                    2 * np.pi * my * y[:, None] + phase_y
                ) * np.sin(2 * np.pi * mz * z[None, :] + phase_z)
        rho_light = 1.0
        rho_heavy = rho_light * (1 + atwood) / (1 - atwood)
        rho = np.where(X < interface[None, :, :], rho_light, rho_heavy)
        p = np.full(self._shape, 1.0)
        velocities = [np.zeros(self._shape) for _ in range(3)]
        # Shock at x = 0.35 moving right through the light gas (Mach ~1.5
        # post-shock state from Rankine-Hugoniot for gamma = 1.4).
        shock = X < 0.35
        rho[shock] = 1.862
        p[shock] = 2.458
        velocities[0][shock] = 0.756
        self._U = self._primitive_to_conserved(rho, velocities, p)

    # -- ShadowApplication interface ---------------------------------------
    @property
    def shape(self) -> tuple[int, int, int]:
        return self._shape

    @property
    def time(self) -> float:
        return self._time

    def indicator_field(self) -> np.ndarray:
        """Density — flags both shocks and the deforming interface."""
        return self._U[0]

    def advance(self) -> None:
        """One coarse step of CFL-limited Rusanov sub-cycles."""
        remaining = self._dt
        while remaining > 1e-14:
            rho, vel, p = self._conserved_to_primitive(self._U)
            c = np.sqrt(self._gamma * p / rho)
            smax = sum(
                float((np.abs(v) + c).max() / h) for v, h in zip(vel, self._h)
            )
            if not np.isfinite(smax):  # a NaN bound would end the step silently
                raise FloatingPointError(
                    f"{self.name}: non-finite wave speed at time {self._time!r}")
            sub = min(remaining, 0.35 / max(smax, 1e-12))
            self._rusanov_step(sub)
            self._time += sub
            remaining -= sub

    # -- internals -----------------------------------------------------------
    def _primitive_to_conserved(
        self, rho: np.ndarray, vel: list[np.ndarray], p: np.ndarray
    ) -> np.ndarray:
        kinetic = 0.5 * rho * sum(v**2 for v in vel)
        E = p / (self._gamma - 1.0) + kinetic
        return np.stack([rho, *(rho * v for v in vel), E])

    def _conserved_to_primitive(
        self, U: np.ndarray
    ) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
        rho = np.maximum(U[0], 1e-10)
        vel = [U[1 + d] / rho for d in range(3)]
        kinetic = 0.5 * rho * sum(v**2 for v in vel)
        p = np.maximum((self._gamma - 1.0) * (U[4] - kinetic), 1e-10)
        return rho, vel, p

    def _flux(self, U: np.ndarray, axis: int) -> np.ndarray:
        """Euler flux along ``axis`` (0, 1 or 2)."""
        rho, vel, p = self._conserved_to_primitive(U)
        vn = vel[axis]
        momentum = [rho * v * vn for v in vel]
        momentum[axis] = momentum[axis] + p
        return np.stack([rho * vn, *momentum, (U[4] + p) * vn])

    def _pad_reflect(self, U: np.ndarray, axis: int) -> np.ndarray:
        """Ghost cells for reflective walls: mirror, flip normal momentum."""
        lo, hi = (np.take(U, [end], axis=1 + axis) for end in (0, -1))
        lo[1 + axis] *= -1.0
        hi[1 + axis] *= -1.0
        return np.concatenate([lo, U, hi], axis=1 + axis)

    def _rusanov_step(self, dt: float) -> None:
        """First-order Rusanov finite-volume update, one sweep per axis."""
        U = self._U
        dU = np.zeros_like(U)
        for axis in range(3):
            Up = self._pad_reflect(U, axis)
            rho, vel, p = self._conserved_to_primitive(Up)
            c = np.sqrt(self._gamma * p / rho)
            a = np.abs(vel[axis]) + c
            F = self._flux(Up, axis)
            lo = (slice(None),) * (1 + axis) + (slice(None, -1),)
            hi = (slice(None),) * (1 + axis) + (slice(1, None),)
            amax = np.maximum(a[lo[1:]], a[hi[1:]])[None]
            flux = 0.5 * (F[lo] + F[hi]) - 0.5 * amax * (Up[hi] - Up[lo])
            dU -= (dt / self._h[axis]) * (flux[hi] - flux[lo])
        self._U = U + dU
