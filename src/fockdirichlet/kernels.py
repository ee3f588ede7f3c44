"""Admissible smearing kernels and their Fourier transforms.

The base family is eta(t) = exp(i*kappa*t) / cosh(2*n*pi*t) with transform

    eta_hat(s) = integral eta(t) exp(i s t) dt = (1/2n) sech((s + kappa)/(4n)),

optionally convolved with a Gaussian of width sigma, which multiplies the
transform by exp(-sigma^2 s^2 / 2).

The raw kernel has poles exactly on the t +/- i/4 lines used by the
carre-du-champ contour integrals; on those lines only the smoothed kernel
(sigma > 0) is evaluated.  For kappa = 0, n = 1 the smoothed contour sum
eta(t+i/4) + eta(t-i/4) collapses to the Gaussian itself, which makes the
admissibility condition on that line strict.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

# half-width of the time integration window; the raw kernel tail at T=8 is
# below exp(-16 pi) ~ 1e-22 for n = 1 (and smaller for larger n)
DEFAULT_T_WINDOW = 8.0
QUAD_TOL = 1e-11
QUAD_NODES = 16          # Gauss-Legendre nodes per panel of every t grid
# decay power p and grid size of `admissibility_report`
DECAY_POWER = 2.0
ADMISSIBILITY_GRID = 201


class QuadratureWarning(UserWarning):
    pass


@dataclass(frozen=True)
class AdmissibleKernel:
    """Frequency shift kappa, steepness n, optional Gaussian width sigma."""

    kappa: float = 0.0
    n: int = 1
    sigma: float = 0.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"steepness n must be a positive integer, got {self.n}")
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")

    # --- real-line values ------------------------------------------------

    def eta_raw(self, t):
        t = np.asarray(t, dtype=float)
        return np.exp(1j * self.kappa * t) / np.cosh(2 * self.n * np.pi * t)

    def eta(self, t):
        """Kernel values on the real line (Gaussian-convolved when sigma > 0)."""
        if self.sigma == 0.0:
            return self.eta_raw(t)
        return self.eta_strip(t, 0.0)

    def eta_strip(self, t, a: float):
        """eta(t + i a) on the strip |a| <= 1/4.

        sigma = 0: direct analytic continuation (invalid at the poles
        t = 0, a = +-(2k+1)/(4n), where a ValueError is raised).
        sigma > 0: convolution integral over the real line, where the raw
        kernel is regular; the Gaussian factor is entire.
        """
        t = np.asarray(t, dtype=float)
        if self.sigma == 0.0:
            if abs(abs(a) - 0.25) < 1e-12 and self.n >= 1:
                raise ValueError(
                    "raw sech kernel has poles on the t +/- i/4 line; "
                    "use sigma > 0 (Gaussian smoothing) there")
            z = t + 1j * a
            return np.exp(1j * self.kappa * z) / np.cosh(2 * self.n * np.pi * z)
        sig = self.sigma
        nodes, weights = _gauss_grid(self.time_window() + 6 * sig,
                                     panel=0.5 / self.n)
        eta_u = self.eta_raw(nodes)
        out = np.empty(t.shape if t.shape else (1,), dtype=complex)
        tt = np.atleast_1d(t)
        for i, ti in enumerate(tt):
            w = ti + 1j * a - nodes
            g = np.exp(-w * w / (2 * sig * sig)) / (sig * np.sqrt(2 * np.pi))
            out[i] = np.sum(weights * eta_u * g)
        return out.reshape(t.shape) if t.shape else complex(out[0])

    # --- Fourier transform -----------------------------------------------

    def fourier(self, s):
        """Closed-form eta_hat(s), elementwise for an array s."""
        val = (1.0 / (2 * self.n)) / np.cosh((s + self.kappa) / (4 * self.n))
        if self.sigma > 0:
            val *= np.exp(-self.sigma ** 2 * s ** 2 / 2.0)
        return val + 0j

    def fourier_quad(self, s: float, tol: float = QUAD_TOL) -> complex:
        """eta_hat(s) by adaptive quadrature of the raw kernel.

        The Gaussian factor of the smoothed transform is exact (the
        convolution theorem), so only the sech integral is quadratured.
        """
        from scipy.integrate import quad
        T = self.time_window()
        re, re_err = quad(lambda t: (self.eta_raw(t) * np.exp(1j * s * t)).real,
                          -T, T, epsabs=tol, epsrel=tol, limit=200)
        im, im_err = quad(lambda t: (self.eta_raw(t) * np.exp(1j * s * t)).imag,
                          -T, T, epsabs=tol, epsrel=tol, limit=200)
        achieved = max(re_err, im_err)
        if achieved > 1e-8:
            warnings.warn(f"kernel quadrature reached only {achieved:.2e}",
                          QuadratureWarning, stacklevel=2)
        val = re + 1j * im
        if self.sigma > 0:
            val *= np.exp(-self.sigma ** 2 * s ** 2 / 2.0)
        return complex(val)

    # --- contour quantities ----------------------------------------------

    def contour_sum(self, t):
        """eta(t + i/4) + eta(t - i/4) (smoothed kernel required)."""
        return self.eta_strip(t, 0.25) + self.eta_strip(t, -0.25)

    def contour_constant(self) -> complex:
        """C = integral (eta(t+i/4) + eta(t-i/4)) dt by quadrature.

        For any admissible kernel the contour shift gives C = 2 eta_hat(0);
        this is evaluated honestly on the smoothed kernel and serves as the
        cross-check of that identity.
        """
        nodes, weights = _gauss_grid(self.time_window() + 6 * max(self.sigma, 0.5),
                                     panel=min(0.5, max(self.sigma, 0.1)))
        vals = self.contour_sum(nodes)
        return complex(np.sum(weights * vals))

    def time_window(self) -> float:
        return DEFAULT_T_WINDOW / self.n + 6 * self.sigma

    def time_grid(self):
        """Composite Gauss-Legendre grid on [-T, T] for generator quadrature,
        QUAD_NODES nodes per panel.

        The raw kernel has poles at distance 1/(4n) from the real line, so
        panels of width 1/(2n) keep the per-panel Bernstein ellipse wide and
        the rule converges to machine precision.
        """
        return _gauss_grid(self.time_window(), panel=0.5 / self.n)


def _gauss_grid(T: float, panel: float):
    """Composite Gauss-Legendre nodes and weights on [-T, T], QUAD_NODES
    per panel."""
    n_panels = max(int(np.ceil(2 * T / panel)), 1)
    edges = np.linspace(-T, T, n_panels + 1)
    x, w = np.polynomial.legendre.leggauss(QUAD_NODES)
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        nodes.append(mid + half * x)
        weights.append(half * w)
    return np.concatenate(nodes), np.concatenate(weights)


@dataclass(frozen=True)
class AdmissibilityReport:
    """Numerical check of the three admissibility conditions on a grid."""

    positive_min: float          # min Re eta(t) over the grid
    imag_max: float              # max |Im eta(t)| (nonzero flags kappa != 0)
    contour_min: float           # min Re (eta(t+i/4) + eta(t-i/4))
    contour_abs_max: float       # max |eta(t+i/4) + eta(t-i/4)|
    decay_M: float               # fitted M with |eta(t+is)| <= M (1+|t|)^-p
    decay_p: float
    condition1_ok: bool
    condition2_ok: bool
    condition3_ok: bool
    notes: tuple[str, ...]


def admissibility_report(kernel: AdmissibleKernel) -> AdmissibilityReport:
    """Check the admissibility conditions numerically on ADMISSIBILITY_GRID
    points, with the decay bound fitted at power p = DECAY_POWER.

    Condition 1 (eta >= 0 on R) is tested on the real part; a complex kernel
    (kappa != 0) is flagged rather than failed silently.  Condition 2 is
    evaluated on the smoothed kernel when sigma > 0; for the raw kernel the
    contour line is singular and the report carries a note instead.
    """
    T = kernel.time_window()
    t = np.linspace(-T, T, ADMISSIBILITY_GRID)
    notes = []
    vals = kernel.eta(t)
    positive_min = float(np.min(vals.real))
    imag_max = float(np.max(np.abs(vals.imag)))
    cond1 = positive_min >= -1e-12
    if imag_max > 1e-12:
        notes.append("kernel is complex-valued (kappa != 0); condition 1 "
                     "checked on the real part only")

    if kernel.sigma > 0:
        cs = kernel.contour_sum(t)
        contour_min = float(np.min(cs.real))
        contour_abs_max = float(np.max(np.abs(cs)))
        cond2 = contour_min >= -1e-10
    else:
        contour_min = np.nan
        contour_abs_max = np.nan
        cond2 = False
        notes.append("raw kernel has poles on the t +/- i/4 line; the "
                     "contour sum vanishes identically away from them "
                     "(checked with the smoothed kernel instead)")

    # decay bound sup over the strip at several heights
    M = 0.0
    for a in np.linspace(-0.249, 0.249, 7):
        va = np.abs(kernel.eta_strip(t, float(a)))
        M = max(M, float(np.max(va * (1 + np.abs(t)) ** DECAY_POWER)))
    cond3 = np.isfinite(M)

    return AdmissibilityReport(
        positive_min=positive_min, imag_max=imag_max,
        contour_min=contour_min, contour_abs_max=contour_abs_max,
        decay_M=M, decay_p=DECAY_POWER,
        condition1_ok=bool(cond1), condition2_ok=bool(cond2),
        condition3_ok=bool(cond3), notes=tuple(notes))
