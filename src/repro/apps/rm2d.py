"""RM2D: the Richtmyer--Meshkov compressible-turbulence kernel.

The paper's RM2D is the VTF (Caltech ASCI/ASAP) compressible-turbulence
application solving the Richtmyer--Meshkov instability: "a fingering
instability which occurs at a material interface accelerated by a shock
wave" (section 5.1.1).  Its trace shows *seemingly random* migration and
communication dynamics (Figure 4).

We solve the 2-D compressible Euler equations

    U_t + F(U)_x + G(U)_y = 0,   U = (rho, rho u, rho v, E)

with a first-order Rusanov (local Lax--Friedrichs) finite-volume scheme.
The initial condition is the classic RM setup: a Mach ~1.5 shock in light
gas approaching a sinusoidally-perturbed density interface to heavy gas.
Reflective walls re-shock the interface repeatedly, so the high-gradient
regions (shock fronts + growing interface fingers) wander irregularly —
the source of RM2D's apparently random refinement dynamics.
"""

from __future__ import annotations

import numpy as np

from ..registry import register
from .base import ShadowApplication

__all__ = ["RichtmyerMeshkov2D"]


@register("app", "rm2d", description="Richtmyer--Meshkov instability (VTF-style), seemingly random trace")
class RichtmyerMeshkov2D(ShadowApplication):
    """Shocked perturbed interface in a closed box (Euler / Rusanov).

    Parameters
    ----------
    shape :
        Shadow-grid resolution.
    dt :
        Coarse-step time increment (sub-cycled to the CFL bound).
    gamma :
        Ratio of specific heats.
    atwood :
        Interface density contrast ``(rho2 - rho1) / (rho2 + rho1)``.
    perturbation_modes :
        Number of sinusoidal modes seeding the interface perturbation.
    seed :
        Seed for the perturbation phases/amplitudes.
    """

    name = "rm2d"

    def __init__(
        self,
        shape: tuple[int, int] = (128, 128),
        dt: float = 0.006,
        gamma: float = 1.4,
        atwood: float = 0.5,
        perturbation_modes: int = 4,
        seed: int = 2003,
    ) -> None:
        if min(shape) < 16:
            raise ValueError("shadow grid too small for a shock problem")
        if not 0.0 < atwood < 1.0:
            raise ValueError("atwood number must be in (0, 1)")
        self._shape = shape
        self._dt = float(dt)
        self._gamma = float(gamma)
        self._time = 0.0
        nx, ny = shape
        self._hx = 1.0 / nx
        self._hy = 1.0 / ny
        rng = np.random.default_rng(seed)
        x = (np.arange(nx) + 0.5) / nx
        y = (np.arange(ny) + 0.5) / ny
        X, Y = np.meshgrid(x, y, indexing="ij")
        # Perturbed interface position x_i(y).
        interface = np.full(ny, 0.55)
        for m in range(1, perturbation_modes + 1):
            amp = rng.uniform(0.004, 0.012)
            phase = rng.uniform(0, 2 * np.pi)
            interface += amp * np.sin(2 * np.pi * m * y + phase)
        rho_light = 1.0
        rho_heavy = rho_light * (1 + atwood) / (1 - atwood)
        rho = np.where(X < interface[None, :], rho_light, rho_heavy)
        p = np.full(shape, 1.0)
        u = np.zeros(shape)
        v = np.zeros(shape)
        # Shock at x = 0.35 moving right through the light gas (Mach ~1.5
        # post-shock state from Rankine-Hugoniot for gamma = 1.4).
        shock = X < 0.35
        rho[shock] = 1.862
        p[shock] = 2.458
        u[shock] = 0.756
        E = p / (self._gamma - 1.0) + 0.5 * rho * (u**2 + v**2)
        self._U = np.stack([rho, rho * u, rho * v, E])

    # -- ShadowApplication interface ---------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return self._shape

    @property
    def time(self) -> float:
        return self._time

    def indicator_field(self) -> np.ndarray:
        """Density — flags both shocks and the deforming interface."""
        return self._U[0]

    def advance(self) -> None:
        """One coarse step of CFL-limited Rusanov sub-cycles.

        A sub-step derives the primitives and wave speeds once, then updates
        one conserved component at a time in planes this step allocates.
        Every element keeps the expression tree of the ghost-padded textbook
        form (``tests/oracles.py``), so the state matches it bit for bit.
        """
        work = np.empty((15,) + self._shape)
        remaining = self._dt
        while remaining > 1e-14:
            ax, ay = self._primitives(work)
            smax = float(ax.max() / self._hx + ay.max() / self._hy)
            if not np.isfinite(smax):  # a NaN bound would end the step silently
                raise FloatingPointError(
                    f"{self.name}: non-finite wave speed at time {self._time!r}")
            sub = min(remaining, 0.35 / max(smax, 1e-12))
            self._rusanov_step(sub, work)
            self._time += sub
            remaining -= sub

    # -- internals -----------------------------------------------------------
    def _primitives(self, work: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``rho, u, v, p, |u| + c, |v| + c`` into ``work[:6]``: ``p = max((g-1) *
        (U3 - 0.5*rho*(u**2 + v**2)), 1e-10)``, ``c = sqrt(g*p/rho)``."""
        U, g = self._U, self._gamma
        rho, u, v, p, ax, ay, t1, t2 = work[:8]
        np.maximum(U[0], 1e-10, out=rho)
        np.divide(U[1], rho, out=u)
        np.divide(U[2], rho, out=v)
        np.add(np.square(u, out=t1), np.square(v, out=t2), out=t1)
        t1 *= np.multiply(0.5, rho, out=t2)
        np.multiply(g - 1.0, np.subtract(U[3], t1, out=p), out=p)
        np.maximum(p, 1e-10, out=p)
        c = np.sqrt(np.divide(np.multiply(g, p, out=t1), rho, out=t1), out=t1)
        np.add(np.abs(u, out=ax), c, out=ax)
        return ax, np.add(np.abs(v, out=ay), c, out=ay)

    def _rusanov_step(self, dt: float, work: np.ndarray) -> None:
        """``U + (-(dt/hx)*dF_x + -(dt/hy)*dG_y)`` with reflective walls."""
        U = self._U
        rho, u, v, p, ax, ay, rhou, rhouv, F, G, du, dy, hx, hy, face = work
        for a, half, s in ((ax, hx, ax.shape[1]), (ay, hy, 1)):  # 0.5 * amax
            a, h = a.reshape(-1), half.reshape(-1)[:-s]
            np.multiply(0.5, np.maximum(a[:-s], a[s:], out=h), out=h)
        self._U = np.empty_like(U)
        for k, (Fk, Gk) in enumerate(_fluxes(rho, u, v, p, U[3], rhou, rhouv, F, G)):
            _face_delta(Fk, U[k], ax, hx, face, du, 0, k == 1)
            _face_delta(Gk, U[k], ay, hy, face, dy, 1, k == 2)
            du *= -(dt / self._hx)
            dy *= -(dt / self._hy)
            np.add(U[k], np.add(du, dy, out=du), out=self._U[k])


def _fluxes(rho, u, v, p, E, rhou, rhouv, F, G):
    """Yield ``(F_k, G_k)``: ``rho*u, rho*u**2 + p, (rho*u)*v, (E+p)*u``, y mirror."""
    yield np.multiply(rho, u, out=rhou), np.multiply(rho, v, out=G)
    np.multiply(rhou, v, out=rhouv)
    yield np.add(np.multiply(rho, np.square(u, out=F), out=F), p, out=F), rhouv
    yield rhouv, np.add(np.multiply(rho, np.square(v, out=G), out=G), p, out=G)
    Ep = np.add(E, p, out=rhou)
    yield np.multiply(Ep, u, out=F), np.multiply(Ep, v, out=G)


def _face_delta(F, Uk, a, half, face, out, axis, normal):
    """``out`` = right minus left Rusanov face flux of each cell along ``axis``.

    Faces ``0.5*(F_L + F_R) - (0.5*amax)*(U_R - U_L)`` run on flat planes
    (along y the ones straddling two rows are garbage); then the wall cells
    are overwritten.  A wall ghost is the edge cell with the normal momentum
    negated: flux ``-F`` (``+F`` for the normal momentum, whose state is
    ``-U``), the edge's wave speed.  Exact IEEE identities: bit-identical.
    """
    s = F.shape[1] if axis == 0 else 1
    Ff, Uf, hf, ff, of = (x.reshape(-1) for x in (F, Uk, half, face, out))
    f = np.multiply(0.5, np.add(Ff[:-s], Ff[s:], out=ff[:-s]), out=ff[:-s])
    jump = np.subtract(Uf[s:], Uf[:-s], out=of[:-s])
    f -= np.multiply(jump, hf[:-s], out=jump)
    np.subtract(f[s:], f[:-s], out=of[s:-s])
    F, Uk, a, face, out = (x.T if axis else x for x in (F, Uk, a, face, out))
    for w, lo in ((0, True), (-1, False)):
        Fg, Ug = (F[w], -Uk[w]) if normal else (-F[w], Uk[w])
        FL, FR, UL, UR = (Fg, F[w], Ug, Uk[w]) if lo else (F[w], Fg, Uk[w], Ug)
        flux = 0.5 * (FL + FR) - (0.5 * a[w]) * (UR - UL)
        out[w] = face[0] - flux if lo else flux - face[-2]
