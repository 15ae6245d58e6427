"""Impulsive-noise models: Bernoulli-Gaussian, Middleton Class A, and SaS.

All samples are complex baseband.  Every variance in this module is a *total*
complex power: a draw from ``CN(0, sigma2)`` has independent real and
imaginary parts of variance ``sigma2 / 2`` each, so ``E|x|^2 == sigma2``.

Each spec samples itself: ``spec.sample(count, rng)``, like
:func:`sample_noise`, returns ``(samples, labels)`` with uint8 labels, 1 where
an impulse is present.  ``spec.thermal_power`` is the background power the
receiver's LLRs assume after mitigation.  The Bernoulli-Gaussian and Middleton
Class A models are finite mixtures of zero-mean circularly-symmetric complex
Gaussians and expose their component weights/variances for density
evaluation.  The symmetric alpha-stable model has no density in closed form
and no per-sample ground truth; its labels are ``None``.

Random state is always an explicit ``numpy.random.Generator``; there is no
module-level RNG.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

#: Minimum pre-truncation probability mass the retained Class A terms must
#: carry; construction fails below this.
MCA_MIN_MASS = 0.999


@dataclass(frozen=True)
class BGNoise:
    """Bernoulli-Gaussian mixture parameters.

    With probability ``1 - epsilon`` a sample is background only,
    ``CN(0, sigma_w2)``; with probability ``epsilon`` an impulse adds
    ``sigma_i2`` of extra power, giving ``CN(0, sigma_w2 + sigma_i2)``.

    Impulses arrive in bursts: burst starts are Bernoulli with rate
    ``epsilon / burst_len`` and each start contaminates ``burst_len``
    consecutive samples (overlaps merge, bursts truncate at the block end),
    so the marginal contamination rate is 1 - (1 - eps/burst_len)^burst_len,
    within a few percent of ``epsilon`` for the burst lengths of interest
    and exactly ``epsilon`` at the default ``burst_len=1``.

    Attributes:
        epsilon: Impulse probability in [0, 1].
        sigma_w2: Background (thermal) complex power, > 0.
        sigma_i2: Extra complex power of an impulse, > 0.
        burst_len: Samples each impulse burst covers, >= 1.
    """

    epsilon: float
    sigma_w2: float
    sigma_i2: float
    burst_len: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {self.epsilon}")
        if self.sigma_w2 <= 0.0 or self.sigma_i2 <= 0.0:
            raise ValueError("variances must be strictly positive")
        if self.burst_len < 1:
            raise ValueError("burst_len must be at least 1")

    @property
    def thermal_power(self) -> float:
        return self.sigma_w2

    def mixture_weights(self) -> Tuple[np.ndarray, np.ndarray]:
        """The two component weights and their total-power variances."""
        return (np.array([1.0 - self.epsilon, self.epsilon]),
                np.array([self.sigma_w2, self.sigma_w2 + self.sigma_i2]))

    def sample(self, count: int, rng: np.random.Generator
               ) -> Tuple[np.ndarray, np.ndarray]:
        """Draw ``count`` samples and their impulse labels."""
        starts = rng.random(count) < self.epsilon / self.burst_len
        labels = np.zeros(count, dtype=np.uint8)
        for offset in range(min(self.burst_len, count)):
            labels[offset:] |= starts[:count - offset]
        sigma2 = np.where(labels == 1, self.sigma_w2 + self.sigma_i2,
                          self.sigma_w2)
        return complex_gaussian(rng, count, sigma2), labels


@dataclass(frozen=True)
class MCANoise:
    """Middleton Class A parameters (truncated Poisson-Gaussian mixture).

    The number of simultaneously active interferers j is Poisson with mean
    ``overlap_a``; conditioned on j the sample is ``CN(0, sigma_j2)`` with

        sigma_j2 = (j / overlap_a + gamma) / (1 + gamma) * sigma_n2

    so j = 0 is the thermal background ``gamma/(1+gamma) * sigma_n2`` and the
    average total power over the untruncated mixture is ``sigma_n2``.  The
    series is truncated to ``j < j_trunc`` and the weights renormalized.

    Attributes:
        overlap_a: Impulsive index A (mean number of overlapping emissions).
        gamma: Background-to-impulsive power ratio.
        sigma_n2: Mean total complex noise power before truncation.
        j_trunc: Number of retained mixture terms (j = 0 .. j_trunc - 1).

    Raises:
        ValueError: On non-positive parameters, or when the retained terms
            carry less than ``MCA_MIN_MASS`` of the Poisson mass, meaning
            ``j_trunc`` is too small for this ``overlap_a``.
    """

    overlap_a: float
    gamma: float
    sigma_n2: float
    j_trunc: int = 10

    def __post_init__(self) -> None:
        if self.overlap_a <= 0.0 or self.gamma <= 0.0 or self.sigma_n2 <= 0.0:
            raise ValueError("overlap_a, gamma and sigma_n2 must be strictly positive")
        if self.j_trunc < 1:
            raise ValueError("j_trunc must be at least 1")
        mass = sum(mca_component(self.overlap_a, self.gamma, self.sigma_n2, j)[0]
                   for j in range(self.j_trunc))
        if mass < MCA_MIN_MASS:
            raise ValueError(
                f"truncated Class A mass {mass:.6f} < {MCA_MIN_MASS}; "
                f"increase j_trunc for overlap_a={self.overlap_a}")

    @property
    def thermal_power(self) -> float:
        """The variance of the j = 0 term, the background alone."""
        return mca_component(self.overlap_a, self.gamma, self.sigma_n2, 0)[1]

    def mixture_weights(self) -> Tuple[np.ndarray, np.ndarray]:
        """The retained Poisson weights, renormalized to sum to 1, and the
        total-power variances of their terms."""
        pairs = [mca_component(self.overlap_a, self.gamma, self.sigma_n2, j)
                 for j in range(self.j_trunc)]
        weights = np.array([p for p, _ in pairs])
        return weights / weights.sum(), np.array([v for _, v in pairs])

    def sample(self, count: int, rng: np.random.Generator
               ) -> Tuple[np.ndarray, np.ndarray]:
        """Draw ``count`` samples; label 1 marks any term with j >= 1."""
        weights, variances = self.mixture_weights()
        term = rng.choice(self.j_trunc, size=count, p=weights)
        return (complex_gaussian(rng, count, variances[term]),
                (term >= 1).astype(np.uint8))


@dataclass(frozen=True)
class SASNoise:
    """Symmetric (or skewed) alpha-stable parameters, applied per component.

    The sampler draws independent stable variates for the real and imaginary
    parts, each distributed S(alpha, beta, scale, loc).

    Attributes:
        alpha: Characteristic exponent in (0, 2].
        beta: Skewness in [-1, 1] (0 for the symmetric case).
        scale: Dispersion gamma > 0 of each component.
        loc: Location mu of each component.
    """

    alpha: float
    beta: float = 0.0
    scale: float = 1.0
    loc: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 2.0:
            raise ValueError(f"alpha must be in (0, 2], got {self.alpha}")
        if not -1.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must be in [-1, 1], got {self.beta}")
        if self.scale <= 0.0:
            raise ValueError("scale must be strictly positive")

    @property
    def thermal_power(self) -> float:
        """Power at alpha = 2, where each part is N(0, 2 scale^2)."""
        return 4.0 * self.scale ** 2

    def sample(self, count: int, rng: np.random.Generator
               ) -> Tuple[np.ndarray, None]:
        """Draw ``count`` samples, independent stable real and imaginary parts.

        Each component is scale * X + loc with X a unit-scale stable variate
        (for alpha = 1 the standard drift correction
        ``loc + 2/pi * beta*scale*ln scale`` applies).  No labels: the model
        carries no impulse indicator.
        """
        shift = self.loc
        if abs(self.alpha - 1.0) < 1e-12:
            shift += 2.0 / np.pi * self.beta * self.scale * math.log(self.scale)
        parts = []
        for _ in range(2):
            u = (rng.random(count) - 0.5) * np.pi
            w = rng.exponential(1.0, count)
            parts.append(self.scale * standard_stable(self.alpha, self.beta, u, w)
                         + shift)
        return parts[0] + 1j * parts[1], None


NoiseSpec = Union[BGNoise, MCANoise, SASNoise]


def mca_component(overlap_a: float, gamma: float, sigma_n2: float,
                  j: int) -> Tuple[float, float]:
    """Return the pre-normalization (weight, variance) of Class A term j.

    weight = exp(-A) A^j / j!  and  variance = (j/A + gamma)/(1+gamma) * sigma_n2.
    """
    if j < 0:
        raise ValueError("term index j must be nonnegative")
    weight = math.exp(-overlap_a) * overlap_a ** j / math.factorial(j)
    variance = (j / overlap_a + gamma) / (1.0 + gamma) * sigma_n2
    return weight, variance


def complex_gaussian(rng: np.random.Generator, count: int, sigma2) -> np.ndarray:
    """Draw CN(0, sigma2) samples; sigma2 may be scalar or per-sample array."""
    scale = np.sqrt(np.asarray(sigma2, dtype=float) / 2.0)
    return scale * (rng.standard_normal(count) + 1j * rng.standard_normal(count))


def standard_stable(alpha: float, beta: float, u: np.ndarray,
                    w: np.ndarray) -> np.ndarray:
    """Map uniform/exponential draws to unit-scale stable variates.

    Implements the Chambers-Mallows-Stuck transform: ``u`` must be uniform on
    (-pi/2, pi/2) and ``w`` exponential with mean 1.  For alpha = 2 the output
    is N(0, 2), i.e. the usual stable convention where scale = sigma/sqrt(2).
    """
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    if abs(alpha - 1.0) < 1e-12:
        half_pi = np.pi / 2.0
        arg = half_pi + beta * u
        return (arg * np.tan(u)
                - beta * np.log(half_pi * w * np.cos(u) / arg)) / half_pi
    shift = math.atan(beta * math.tan(np.pi * alpha / 2.0)) / alpha
    scale = (1.0 + beta ** 2 * math.tan(np.pi * alpha / 2.0) ** 2) ** (1.0 / (2.0 * alpha))
    angle = alpha * (u + shift)
    return (scale * np.sin(angle) / np.cos(u) ** (1.0 / alpha)
            * (np.cos(u - angle) / w) ** ((1.0 - alpha) / alpha))


def sample_noise(spec: NoiseSpec, count: int, rng: np.random.Generator
                 ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Draw ``count`` samples of ``spec``: ``(samples, labels)``."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    return spec.sample(count, rng)
