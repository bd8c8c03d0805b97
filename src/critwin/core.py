"""Run configuration, critical-window parameterizations, and deterministic RNG streams.

Everything downstream (graph sampling, chain simulation, continuum ensembles)
consumes a window object for its edge probability and an `RngStream` for its
randomness.  All values here are immutable after construction; streams are
single-owner.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "CritwinError",
    "InvalidWindowError",
    "ConfigError",
    "AldousWindow",
    "GeneralWindow",
    "CriticalWindow",
    "RunConfig",
    "RngStream",
    "edge_probability",
    "make_stream",
    "parse_config_file",
    "parse_config_text",
    "config_from_mapping",
]


class CritwinError(Exception):
    """Base class for errors raised by this package."""


class InvalidWindowError(CritwinError):
    """Edge probability fell outside (0, 1) for the requested n."""


class ConfigError(CritwinError):
    """A run configuration is unusable (bad key, k = 0, ...)."""


def _scale_row(kind: str, table: dict) -> tuple:
    if kind not in table:
        raise ValueError(f"unknown series kind {kind!r}; expected one of {tuple(table)}")
    return table[kind]


@dataclass(frozen=True)
class AldousWindow:
    """Critical window with p(n) = 1/n + lam * n**(-4/3).

    A raw series becomes a path on a real grid by multiplying its values by a
    space scale and its indices by a time scale; with c = n**(1/3):

        series  space scale   time scale
        Z       1/c           1/c
        C       1/c**2        1/c
        csn     1/c           1/c**2
        K       1/n           1/c**2
        walk    1/c           1/c**2
    """

    lam: float

    def probability(self, n: int) -> float:
        return 1.0 / n + self.lam * float(n) ** (-4.0 / 3.0)

    def root_mass(self, n: int, x: float) -> float:
        """The unfloored root count n**(1/3) x."""
        return x * float(np.cbrt(float(n)))

    def max_steps(self, n: int) -> int:
        """Generation cap far above diameter-scale heights, so truncation is negligible."""
        return 50 * math.ceil(float(np.cbrt(float(n))))

    def scales(self, kind: str, n: int) -> tuple:
        """(space_scale, time_scale) of series ``kind`` at size n."""
        nf = float(n)
        cbrt = float(np.cbrt(nf))
        return _scale_row(kind, {
            "Z": (1.0 / cbrt, 1.0 / cbrt),
            "C": (1.0 / cbrt**2, 1.0 / cbrt),
            "csn": (1.0 / cbrt, 1.0 / cbrt**2),
            "K": (1.0 / nf, 1.0 / cbrt**2),
            "walk": (1.0 / cbrt, 1.0 / cbrt**2),
        })

    def describe(self, n: int) -> dict:
        return {"window": "aldous", "lambda": self.lam}


@dataclass(frozen=True)
class GeneralWindow:
    """Critical window with p(n) = (1 + lam * epsilon) / n, epsilon > 0.

    ``theta(n) = epsilon * n**(1/3)`` is the natural auxiliary scale; the
    intended regime has epsilon -> 0 with epsilon**3 * n -> infinity, i.e.
    theta(n) -> infinity while theta(n) = o(n**(1/3)).  Series scales at
    size n, as in `AldousWindow`:

        series  space scale            time scale
        Z       1/(n eps**2)           eps
        C       1/(n eps)              eps
        csn     1/(n eps**2)           1/(n eps)
        K       1/(n**2 eps**3)        1/(n eps)
        walk    theta**-2 n**(-1/3)    theta**-1 n**(-2/3)
    """

    lam: float
    epsilon: float

    def __post_init__(self):
        if not self.epsilon > 0:
            raise InvalidWindowError(f"epsilon must be > 0, got {self.epsilon}")

    def probability(self, n: int) -> float:
        return (1.0 + self.lam * self.epsilon) / n

    def theta(self, n: int) -> float:
        return self.epsilon * float(np.cbrt(float(n)))

    def regime_ok(self, n: int) -> bool:
        """Whether epsilon**3 * n exceeds 10.

        Recorded in reports/manifests; runs violating it are not rejected.
        An epsilon**3 past the float range is far above 10.
        """
        try:
            return self.epsilon**3 * n > 10.0
        except OverflowError:
            return True

    def root_mass(self, n: int, x: float) -> float:
        """The unfloored root count epsilon**2 n x."""
        return self.epsilon**2 * n * x

    def max_steps(self, n: int) -> int:
        """Generation cap far above diameter-scale heights, so truncation is negligible."""
        return 50 * math.ceil(1.0 / self.epsilon)

    def scales(self, kind: str, n: int) -> tuple:
        """(space_scale, time_scale) of series ``kind`` at size n."""
        nf = float(n)
        eps = float(self.epsilon)
        cbrt = float(np.cbrt(nf))
        theta = eps * cbrt
        return _scale_row(kind, {
            "Z": (1.0 / (nf * eps**2), eps),
            "C": (1.0 / (nf * eps), eps),
            "csn": (1.0 / (nf * eps**2), 1.0 / (nf * eps)),
            "K": (1.0 / (nf**2 * eps**3), 1.0 / (nf * eps)),
            "walk": (1.0 / (cbrt * theta**2), 1.0 / (cbrt**2 * theta)),
        })

    def describe(self, n: int) -> dict:
        return {
            "window": "general",
            "lambda": self.lam,
            "epsilon": self.epsilon,
            "theta": self.theta(n),
            "regime_ok": self.regime_ok(n),
        }


CriticalWindow = Union[AldousWindow, GeneralWindow]


def edge_probability(window: CriticalWindow, n: int) -> float:
    """Edge probability p(n) for the given window; must land in (0, 1).

    Raises InvalidWindowError naming the offending parameters otherwise.
    """
    if n < 2:
        raise InvalidWindowError(f"need n >= 2 for an edge probability, got n={n}")
    p = window.probability(n)
    if not (0.0 < p < 1.0):
        eps = getattr(window, "epsilon", None)
        raise InvalidWindowError(
            f"edge probability {p} outside (0,1) for n={n}, lambda={window.lam}"
            + (f", epsilon={eps}" if eps is not None else "")
        )
    return p


def _floor_guarded(y: float) -> int:
    """floor(y) robust to the argument sitting a few ulps below an integer."""
    k = math.floor(y)
    if y + 8.0 * math.ulp(max(abs(y), 1.0)) >= k + 1:
        k += 1
    return k


@dataclass(frozen=True)
class RunConfig:
    """A fully resolved run: population size, initial mass, window, seeding."""

    n: int
    x: float
    window: CriticalWindow
    seed: int = 0
    replicates: int = 1

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError(f"n must be >= 1, got {self.n}")
        if not 0 < self.x < math.inf:
            raise ConfigError(f"x must be finite and > 0, got {self.x}")
        if self.replicates < 1:
            raise ConfigError(f"replicates must be >= 1, got {self.replicates}")
        if self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")

    @property
    def k(self) -> int:
        """Number of roots / initially infected: floor(n**(1/3) x) or floor(eps**2 n x).

        k = 0 is a configuration error (ask for larger x or n); k > n, or overflow, likewise.
        """
        try:
            k = _floor_guarded(self.window.root_mass(self.n, self.x))
        except OverflowError:
            raise ConfigError(f"derived k exceeds n = {self.n}; decrease x or epsilon") from None
        if k < 1:
            raise ConfigError(f"derived k = 0 for n={self.n}, x={self.x}; increase x or n")
        if k > self.n:
            raise ConfigError(f"derived k = {k} exceeds n = {self.n}; decrease x")
        return k

    def describe(self) -> dict:
        d = {"n": self.n, "x": self.x, "seed": self.seed, "replicates": self.replicates}
        d.update(self.window.describe(self.n))
        d["k"] = self.k
        return d


# An RngStream is a numpy Generator over the counter-based Philox engine,
# keyed by (seed, replicate, label).  Identical keys replay the identical
# sequence on every platform; distinct replicates or labels decorrelate.
RngStream = np.random.Generator


def make_stream(seed: int, replicate: int, label: str) -> RngStream:
    """Deterministic stream for (seed, replicate, label).

    The label is hashed (BLAKE2) into the seed material so that differently
    labeled streams of the same run never overlap.
    """
    label_key = int.from_bytes(
        hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest(), "little"
    )
    ss = np.random.SeedSequence([int(seed), int(replicate), label_key])
    return np.random.Generator(np.random.Philox(ss))


_CONFIG_KEYS = {
    "n": int,
    "x": float,
    "lambda": float,
    "window": str,
    "epsilon": float,
    "seed": int,
    "replicates": int,
}


def parse_config_text(text: str) -> dict:
    """Parse `key = value` lines; unknown keys are an error.

    Blank lines and `#` comments are allowed.
    """
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected `key = value`, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            values[key] = _CONFIG_KEYS[key](val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {val!r}") from exc
    return values


def parse_config_file(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def config_from_mapping(values: dict) -> RunConfig:
    """Build a RunConfig from parsed file values (already CLI-merged)."""
    missing = [key for key in ("n", "x") if values.get(key) is None]
    if missing:
        raise ConfigError(f"missing required config keys: {', '.join(missing)}")
    lam = values.get("lambda", 0.0)
    kind = values.get("window", "aldous")
    if kind == "aldous":
        window: CriticalWindow = AldousWindow(lam=lam)
    elif kind == "general":
        if values.get("epsilon") is None:
            raise ConfigError("window=general requires epsilon")
        window = GeneralWindow(lam=lam, epsilon=values["epsilon"])
    else:
        raise ConfigError(f"window must be aldous|general, got {kind!r}")
    return RunConfig(
        n=values["n"],
        x=values["x"],
        window=window,
        seed=values.get("seed", 0),
        replicates=values.get("replicates", 1),
    )
