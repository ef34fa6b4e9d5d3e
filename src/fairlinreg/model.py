"""Data-generating model: parameter tuple, constraint validation, sampling.

The model draws a group label S with probabilities p, features
X | S=s ~ N(mu_s, sigma_x^2 I), and an outcome Y = <beta_s, X> + noise with
noise ~ N(0, sigma_xi^2).  Covariance is fixed to sigma_x^2 * I (variance
convention) throughout.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, DimensionError, ParameterError

# Absolute slack on the constraint-set inequalities; absorbs float round-off.
CONSTRAINT_TOL = 1e-9
PROB_TOL = 1e-12


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_finite_real(value) -> bool:
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    return real and math.isfinite(value)


def _frozen_array(a, name: str, dtype=float) -> np.ndarray:
    """``a`` as a read-only contiguous array: rectangular ints or finite floats only."""
    try:
        raw = np.asarray(a)
    except ValueError:  # ragged nesting
        raw = None
    if raw is None or raw.dtype.kind not in "iuf":
        raise ParameterError(f"{name} must be a rectangular array of numbers")
    out = np.ascontiguousarray(raw, dtype=dtype)
    if out.dtype.kind == "f" and not np.all(np.isfinite(out)):
        raise ParameterError(f"{name} must be finite: it holds NaN or inf")
    out.setflags(write=False)
    return out


def to_dict(obj) -> dict:
    """A dataclass's fields, in field order, as JSON-ready values (arrays as lists)."""
    out = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        out[f.name] = value.tolist() if isinstance(value, np.ndarray) else value
    return out


def from_dict(cls, obj):
    """The inverse of ``to_dict``: the dataclass ``cls`` rebuilt from a JSON object.

    ``obj`` is the parsed object or its JSON text.  It must hold exactly the
    fields of ``cls``, less any that have defaults; the values go to the
    constructor unchanged, so the constructor's checks are the only type
    rules.  Every rejection is one ``ConfigError`` that names ``cls``.
    """
    name = cls.__name__
    if isinstance(obj, str):
        try:
            obj = json.loads(obj)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{name}: not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"{name}: JSON must be an object, got {type(obj).__name__}")
    unknown = sorted(set(obj) - {f.name for f in fields(cls)})
    missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in obj]
    if unknown or missing:
        raise ConfigError(f"{name}: unknown fields {unknown}, missing fields {missing}")
    try:
        return cls(**obj)
    except (TypeError, ValueError, ConfigError, ParameterError, DimensionError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def norm_diversity_factor(p: np.ndarray, norms: np.ndarray) -> float:
    """Left side of the second norm-diversity inequality.

    (sum_s p_s ||beta_s||)^2 * (1/M) * sum_s ||beta_s||^-2, for positive norms.
    """
    return float((p @ norms) ** 2 * np.mean(norms ** -2.0))


@dataclass(frozen=True)
class ModelParams:
    """Full distribution parameter tuple (beta, mu, p, sigma_x, sigma_xi, B, U).

    beta and mu are (M, d) arrays; p is a length-M probability vector.
    B bounds the coefficient norms and their diversity; U bounds ||mu_s||.
    Instances are immutable and safe to share across threads.
    """

    d: int
    M: int
    beta: np.ndarray
    mu: np.ndarray
    p: np.ndarray
    sigma_x: float
    sigma_xi: float
    B: float
    U: float

    def __post_init__(self):
        for name in ("beta", "mu", "p"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name), name))
        for name in ("sigma_x", "sigma_xi", "B", "U"):
            value = getattr(self, name)
            if not _is_finite_real(value):
                raise ParameterError(f"{name} must be a finite number, got {value!r}")
            object.__setattr__(self, name, float(value))
        if not (_is_int(self.d) and _is_int(self.M) and self.d >= 1 and self.M >= 1):
            raise DimensionError(f"need integer d, M >= 1, got d={self.d!r}, M={self.M!r}")
        for name, arr in (("beta", self.beta), ("mu", self.mu)):
            if arr.shape != (self.M, self.d):
                raise DimensionError(
                    f"{name} has shape {arr.shape}, expected ({self.M}, {self.d})"
                )
        if self.p.shape != (self.M,):
            raise DimensionError(f"p has shape {self.p.shape}, expected ({self.M},)")

    @property
    def beta_norms(self) -> np.ndarray:
        return np.linalg.norm(self.beta, axis=1)

    def diversity_factor(self) -> float:
        """``norm_diversity_factor`` of this model; needs every ||beta_s|| > 0."""
        norms = self.beta_norms
        if np.any(norms == 0.0):
            raise ParameterError("diversity factor undefined for zero-norm beta_s")
        return norm_diversity_factor(self.p, norms)

    def to_json(self) -> str:
        return json.dumps(to_dict(self), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ModelParams":
        return from_dict(cls, text)


def validate_params(params: ModelParams) -> list[str]:
    """Return a report of violated constraints (empty iff the params are valid).

    Each entry names the constraint and the measured value.  Pure reporting:
    never raises for a mathematical violation.
    """
    report: list[str] = []
    p = params.p
    psum = float(p.sum())
    if abs(psum - 1.0) > PROB_TOL:
        report.append(f"group probabilities must sum to 1: sum(p) = {psum!r}")
    if np.any(p <= 0.0):
        report.append(f"every group probability must be positive: min(p) = {p.min()!r}")
    if params.sigma_x <= 0.0:
        report.append(f"sigma_x must be positive: {params.sigma_x!r}")
    if params.sigma_xi < 0.0:
        report.append(f"sigma_xi must be nonnegative: {params.sigma_xi!r}")
    if params.B <= 0.0:
        report.append(f"B must be positive: {params.B!r}")
    if params.U <= 0.0:
        report.append(f"U must be positive: {params.U!r}")

    norms = params.beta_norms
    max_norm = float(norms.max())
    if max_norm > params.B + CONSTRAINT_TOL:
        report.append(
            f"max-norm violated: max_s ||beta_s|| = {max_norm!r} > B = {params.B!r}"
        )
    if np.all(norms > 0.0):
        factor = params.diversity_factor()
        if factor > params.B ** 2 + CONSTRAINT_TOL:
            report.append(
                f"norm-diversity violated: factor = {factor!r} > B^2 = {params.B ** 2!r}"
            )
    mu_norms = np.linalg.norm(params.mu, axis=1)
    max_mu = float(mu_norms.max())
    if max_mu > params.U + CONSTRAINT_TOL:
        report.append(
            f"mean-norm violated: max_s ||mu_s|| = {max_mu!r} > U = {params.U!r}"
        )
    return report


@dataclass(frozen=True)
class Dataset:
    """n observations (x_i, s_i, y_i) with group labels stored 0-based.

    The CSV interchange format uses 1-based group labels in column ``s``.
    """

    x: np.ndarray  # (n, d)
    s: np.ndarray  # (n,) int, in [0, M)
    y: np.ndarray  # (n,)
    M: int

    def __post_init__(self):
        object.__setattr__(self, "x", _frozen_array(self.x, "x"))
        object.__setattr__(self, "s", _frozen_array(self.s, "s", dtype=np.int64))
        object.__setattr__(self, "y", _frozen_array(self.y, "y"))
        if self.x.ndim != 2 or self.s.shape != (self.x.shape[0],) or self.y.shape != (
            self.x.shape[0],
        ):
            raise DimensionError("inconsistent dataset array shapes")
        if self.n and (self.s.min() < 0 or self.s.max() >= self.M):
            raise DimensionError("group labels out of range")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]

    @property
    def group_counts(self) -> np.ndarray:
        return np.bincount(self.s, minlength=self.M)

    def group_indices(self, s: int) -> np.ndarray:
        return np.flatnonzero(self.s == s)

    def to_csv(self, path: str | Path) -> None:
        """Write a header and one ``%.17g`` row per observation, CRLF-terminated."""
        header = [f"x_{j + 1}" for j in range(self.d)] + ["s", "y"]
        np.savetxt(
            path,
            np.column_stack([self.x, self.s + 1, self.y]),
            fmt=["%.17g"] * self.d + ["%d", "%.17g"],
            delimiter=",",
            header=",".join(header),
            comments="",
            newline="\r\n",
        )

    @classmethod
    def from_csv(cls, path: str | Path, M: int) -> "Dataset":
        """Read a ``to_csv`` file; any malformed content raises ``ConfigError``."""
        with open(path) as fh:
            d = len(fh.readline().split(",")) - 2
            if d < 1:
                raise ConfigError(f"dataset CSV {path}: header needs x columns, s and y")
            try:
                table = np.loadtxt(fh, delimiter=",", ndmin=2)
            except ValueError as exc:
                raise ConfigError(f"malformed dataset CSV {path}: {exc}") from exc
        if table.size == 0:
            raise ConfigError(f"dataset CSV {path} has no data rows")
        if table.shape[1] != d + 2:
            raise ConfigError(
                f"dataset CSV {path}: rows have {table.shape[1]} fields, header has {d + 2}"
            )
        labels = table[:, d]
        if not np.all((labels == np.round(labels)) & (labels >= 1) & (labels <= M)):
            raise ConfigError(f"dataset CSV {path}: group labels must be integers in 1..{M}")
        try:
            return cls(x=table[:, :d], s=labels.astype(np.int64) - 1, y=table[:, d + 1], M=M)
        except ParameterError as exc:
            raise ConfigError(f"dataset CSV {path}: {exc}") from exc


def sample_dataset(
    params: ModelParams, n: int, seed: int | np.random.SeedSequence
) -> Dataset:
    """Draw n i.i.d. observations from the model; deterministic given seed."""
    report = validate_params(params)
    if report:
        raise ParameterError("invalid model parameters: " + "; ".join(report))
    if n < 1:
        raise ParameterError(f"n must be positive, got {n}")
    rng = np.random.default_rng(seed)
    # Inverse-CDF categorical draw on the cumulative weights.
    cum = np.cumsum(params.p)
    cum[-1] = 1.0
    s = np.searchsorted(cum, rng.random(n), side="right").astype(np.int64)
    x = params.mu[s] + params.sigma_x * rng.standard_normal((n, params.d))
    y = np.einsum("ij,ij->i", params.beta[s], x)
    if params.sigma_xi > 0.0:
        y = y + params.sigma_xi * rng.standard_normal(n)
    return Dataset(x=x, s=s, y=y, M=params.M)


@dataclass(frozen=True)
class GroupAffineRegressor:
    """Per-group affine regressor f(x, s) = <w_s, x> + b_s."""

    w: np.ndarray  # (M, d)
    b: np.ndarray  # (M,)

    def __post_init__(self):
        object.__setattr__(self, "w", _frozen_array(self.w, "w"))
        object.__setattr__(self, "b", _frozen_array(self.b, "b"))
        if self.w.ndim != 2 or self.b.shape != (self.w.shape[0],):
            raise DimensionError("w must be (M, d) and b must be (M,)")

    @property
    def M(self) -> int:
        return self.w.shape[0]

    @property
    def d(self) -> int:
        return self.w.shape[1]

    def predict(self, x: np.ndarray, s: np.ndarray) -> np.ndarray:
        """Vectorized evaluation over rows of x with matching group labels."""
        x = np.asarray(x, dtype=float)
        s = np.asarray(s, dtype=np.int64)
        if x.shape[-1] != self.d:
            raise DimensionError(f"x has dimension {x.shape[-1]}, expected {self.d}")
        return np.einsum("ij,ij->i", self.w[s], np.atleast_2d(x)) + self.b[s]


def evaluate(regressor: GroupAffineRegressor, x: Sequence[float], s: int) -> float:
    """Evaluate <w_s, x> + b_s at a single point."""
    x = np.asarray(x, dtype=float)
    if x.shape != (regressor.d,):
        raise DimensionError(f"x has shape {x.shape}, expected ({regressor.d},)")
    if not 0 <= s < regressor.M:
        raise DimensionError(f"group index {s} out of range [0, {regressor.M})")
    return float(regressor.w[s] @ x + regressor.b[s])
