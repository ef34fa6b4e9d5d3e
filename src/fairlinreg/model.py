"""Data-generating model: parameter tuple, constraint validation, sampling.

The model draws a group label S with probabilities p, features
X | S=s ~ N(mu_s, sigma_x^2 I), and an outcome Y = <beta_s, X> + noise with
noise ~ N(0, sigma_xi^2).  Covariance is fixed to sigma_x^2 * I (variance
convention) throughout.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import warnings
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import ConfigError, DimensionError, ParameterError

# Absolute slack on the constraint-set inequalities; absorbs float round-off.
CONSTRAINT_TOL = 1e-9
PROB_TOL = 1e-12

# Rows per formatting step of ``Dataset.to_csv``: bounds its working memory
# (Python floats, row strings and the joined text: about 80 bytes per value,
# some 40 kB per column at 512 rows) whatever n.  A process's peak RSS counts
# that memory once per thread writing a CSV, so the chunk is kept small.
_CSV_CHUNK = 512


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_int(value, name: str, least: int, error=ParameterError) -> int:
    """``value`` as an int, once it is an integer (not a bool) >= ``least``."""
    if not (_is_int(value) and value >= least):
        raise error(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _check_real(value, name: str, bound: str = "", error=ParameterError) -> float:
    """``value`` as a float, once it is a finite number meeting ``bound``: "", ">= 0" or "> 0"."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)
    if not (real and {"": True, ">= 0": value >= 0, "> 0": value > 0}[bound]):
        raise error(f"{name} must be a finite number{bound and ' '}{bound}, got {value!r}")
    return float(value)


def _frozen_array(a, name: str, dtype=float) -> np.ndarray:
    """A read-only contiguous copy of ``a``: rectangular ints or finite floats only."""
    try:
        raw = np.array(a)
    except ValueError:  # ragged nesting
        raw = None
    if raw is None or raw.dtype.kind not in "iuf":
        raise ParameterError(f"{name} must be a rectangular array of numbers")
    out = np.ascontiguousarray(raw, dtype=dtype)
    if out.dtype.kind == "f":
        _check_finite(out, name)
    out.setflags(write=False)
    return out


def _check_seed(seed) -> int:
    """``seed`` as an int, once it is an integer >= 0."""
    return _check_int(seed, "seed", 0)


def _rng(seed) -> np.random.Generator:
    """``np.random.default_rng(seed)`` for a SeedSequence, a Generator or an integer seed >= 0."""
    numpy_seed = isinstance(seed, (np.random.SeedSequence, np.random.Generator))
    return np.random.default_rng(seed if numpy_seed else _check_seed(seed))


# numpy's SeedSequence hash on 32-bit words (numpy/random/bit_generator.pyx):
# the key words are mixed into the seed's pool of 4 words, and
# generate_state hashes the pool into a bit generator's seed words.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4


def _hash_steps(const: int, mult: int, count: int) -> np.ndarray:
    """numpy's running hash constant over ``count`` hashes: each one's (xor, multiplier) pair.

    The constant advances by a fixed factor per hash, whatever the hashed
    values.  Returned as a (count, 2) ``uint64`` array.
    """
    consts = [const]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(list(zip(consts, consts[1:])), dtype=np.uint64)


def _hash(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """One numpy hash of 32-bit words held in ``uint64`` arrays."""
    value = (value ^ xor) * mult & _MASK32
    return value ^ value >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """numpy's mix of two 32-bit words held in ``uint64`` arrays."""
    value = (_MIX_L * x - _MIX_R * y) & _MASK32
    return value ^ value >> 16


@functools.cache
def _seed_words() -> type:
    """A seed sequence whose state is already hashed: the 4 ``uint64`` words PCG64 asks for.

    Made on first use: numpy loads ``numpy.random`` lazily, and importing it
    with the package raised a run's peak RSS by 0.35-0.5 MB.
    """

    class SeedWords(np.random.bit_generator.ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return SeedWords


def _streams(seed, keys) -> Iterator[np.random.Generator]:
    """The generator ``default_rng(SeedSequence(seed, spawn_key=key))`` of each key, bit for bit.

    This is the library's stream contract: trial, rep and chunk k of a run
    draws from the seed sequence keyed by its indices, so each one can be
    reproduced alone.  ``keys`` are equal-length tuples of integers in
    [0, 2^32), one 32-bit word each.  The seed's pool, shared by every key,
    is numpy's own ``SeedSequence(seed).pool``; numpy's hash then runs once
    for the batch on ``uint64`` arrays, one mix step per key word for all
    keys at once.  The generators are built one at a time, as the caller
    takes them.
    """
    seed = _check_seed(seed)
    key_words = np.array(keys)
    if not (
        key_words.ndim == 2
        and key_words.size
        and key_words.dtype.kind in "iu"
        and key_words.min() >= 0
        and key_words.max() <= _MASK32
    ):
        raise ParameterError("spawn keys must be equal-length tuples of integers in [0, 2^32)")
    pool = np.random.SeedSequence(seed).pool.astype(np.uint64)
    # the pool took 4 hashes per seed word, zero-padded to 4 words; key word j
    # is hashed once per pool word: one (T, n_keys, 4) step for all keys, then
    # the pool mixes the key words in turn
    n_words = max(-(-seed.bit_length() // 32), _POOL)
    n_keys = key_words.shape[1]
    const = _INIT_A * pow(_MULT_A, _POOL * n_words, 1 << 32) & _MASK32
    pairs = _hash_steps(const, _MULT_A, _POOL * n_keys).reshape(n_keys, _POOL, 2)
    hashed = _hash(key_words.astype(np.uint64)[..., None], pairs[..., 0], pairs[..., 1])
    for j in range(n_keys):
        pool = _mix(pool, hashed[:, j])
    # generate_state(4, np.uint64): 8 words from the pool cycled twice, paired little-endian
    xor, mult = _hash_steps(_INIT_B, _MULT_B, 2 * _POOL).T
    state = _hash(np.tile(pool, 2), xor, mult)
    words = state[:, 0::2] | state[:, 1::2] << 32
    seed_words = _seed_words()
    return (np.random.Generator(np.random.PCG64(seed_words(row))) for row in words)


def _check_finite(a: np.ndarray, name: str) -> np.ndarray:
    """``a`` itself, once every value is finite."""
    if not np.all(np.isfinite(a)):
        raise ParameterError(f"{name} must be finite: it holds NaN or inf")
    return a


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of the last axes of a and b, one per leading index.

    Each is a stacked (1 x k) @ (k x 1) matmul, which sums exactly as ``a @ b``
    on two 1-d vectors whatever the leading shape.  A 2-d ``x @ p`` across
    trials is one gemv and sums in another order, so a trial's bits would
    depend on its batch; the batch kernels never take it.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``einsum("ij,ij->i")`` over the last two axes, per leading index, to the bit."""
    return np.einsum("...ij,...ij->...i", a, b)


def _norm(v: np.ndarray) -> np.ndarray:
    """Norm of each vector along the last axis: ``np.linalg.norm`` of that 1-d vector, to the bit.

    Each vector is scaled by a power of two, which is exact, so the norm of
    a vector above ~1e154 stays finite although its square would not.
    """
    _, exponent = np.frexp(np.abs(v).max(axis=-1))
    scaled = np.ldexp(v, -exponent[..., None])
    return np.ldexp(np.sqrt(_dot(scaled, scaled)), exponent)


def to_dict(obj) -> dict:
    """A dataclass's fields, in field order, as JSON-ready values (arrays as lists)."""
    out = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        out[f.name] = value.tolist() if isinstance(value, np.ndarray) else value
    return out


def _as_batch(obj):
    """A dataclass of one trial as a batch of one: each field gains a leading axis of length 1."""
    return type(obj)(**{f.name: np.asarray(getattr(obj, f.name))[None] for f in fields(obj)})


def _trial(batch, i: int):
    """Trial i of a dataclass whose fields carry a leading trial axis; 0-d values become scalars."""
    values = {f.name: getattr(batch, f.name)[i] for f in fields(batch)}
    return type(batch)(**{k: v.item() if np.ndim(v) == 0 else v for k, v in values.items()})


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


def norm_diversity_factor(p: np.ndarray, norms: np.ndarray):
    """Left side of the second norm-diversity inequality.

    (sum_s p_s ||beta_s||)^2 * (1/M) * sum_s ||beta_s||^-2, for positive norms.
    The factor is scale-free, so the norms are divided by their maximum first:
    squaring norms above ~1e154 would overflow.  One model's 1-d norms give
    a float; a (T, M) stack of them gives one factor per model.
    """
    ratios = norms / norms.max(axis=-1, keepdims=True)
    inverse_squares = ratios ** -2.0
    factor = _dot(p, ratios) ** 2 * (inverse_squares.sum(axis=-1) / norms.shape[-1])
    return float(factor) if norms.ndim == 1 else factor


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
            object.__setattr__(self, name, _check_real(getattr(self, name), name))
        for name in ("d", "M"):
            object.__setattr__(self, name, _check_int(getattr(self, name), name, 1, DimensionError))
        for name, arr in (("beta", self.beta), ("mu", self.mu)):
            if arr.shape != (self.M, self.d):
                raise DimensionError(
                    f"{name} has shape {arr.shape}, expected ({self.M}, {self.d})"
                )
        if self.p.shape != (self.M,):
            raise DimensionError(f"p has shape {self.p.shape}, expected ({self.M},)")

    @property
    def beta_norms(self) -> np.ndarray:
        return _norm(self.beta)

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
    never raises for a mathematical violation.  The checks are those of
    ``_violations`` on a batch of one.
    """
    return _report(_violations(_ModelStack.of([params])), 0)


def _check_model(params: ModelParams, n: int) -> ModelParams:
    """The entry check of a draw from the model: valid ``params``, returned, and integer n >= 1."""
    report = validate_params(params)
    if report:
        raise ParameterError("invalid model parameters: " + "; ".join(report))
    _check_int(n, "n", 1)
    return params


def _violations(models: _ModelStack) -> list[tuple[np.ndarray, str, tuple]]:
    """Every constraint on T models as (violated, message, measured values), each per model.

    ``violated`` is a (T,) bool array; the message formats the measured values
    of one model with ``_report``.
    """
    p, norms, B, U = models.p, models.norms, models.B, models.U
    finite = np.isfinite(models.beta).all(axis=(1, 2)) & np.isfinite(models.mu).all(axis=(1, 2))
    psum = p.sum(axis=1)
    max_norm = norms.max(axis=1)
    positive = (norms > 0.0).all(axis=1)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        factor = np.where(positive, norm_diversity_factor(p, norms), np.nan)
        B2 = B * B  # reads inf above ~1.3e154
    max_mu = _norm(models.mu).max(axis=1)
    return [
        (np.abs(psum - 1.0) > PROB_TOL,
         "group probabilities must sum to 1: sum(p) = {!r}", (psum,)),
        ((p <= 0.0).any(axis=1),
         "every group probability must be positive: min(p) = {!r}", (p.min(axis=1),)),
        (models.sigma_x <= 0.0, "sigma_x must be positive: {!r}", (models.sigma_x,)),
        (models.sigma_xi < 0.0, "sigma_xi must be nonnegative: {!r}", (models.sigma_xi,)),
        (B <= 0.0, "B must be positive: {!r}", (B,)),
        (U <= 0.0, "U must be positive: {!r}", (U,)),
        (~finite, "beta and mu must be finite", ()),
        (max_norm > B + CONSTRAINT_TOL,
         "max-norm violated: max_s ||beta_s|| = {!r} > B = {!r}", (max_norm, B)),
        # a zero norm leaves the factor undefined (NaN), and NaN violates nothing
        (factor > B2 + CONSTRAINT_TOL,
         "norm-diversity violated: factor = {!r} > B^2 = {!r}", (factor, B2)),
        (max_mu > U + CONSTRAINT_TOL,
         "mean-norm violated: max_s ||mu_s|| = {!r} > U = {!r}", (max_mu, U)),
    ]


def _report(violations: list[tuple[np.ndarray, str, tuple]], i: int) -> list[str]:
    """Model i's violated constraints, each message with its measured values."""
    return [
        message.format(*(float(v[i]) for v in values))
        for violated, message, values in violations
        if violated[i]
    ]


@dataclass(frozen=True)
class _ModelStack:
    """T models of one (M, d) for the batch kernels: each field gains a leading trial axis.

    ``of([params])`` is a batch of one, which is how the single-trial
    functions call the kernels.  The models are not checked again here.
    """

    beta: np.ndarray      # (T, M, d)
    mu: np.ndarray        # (T, M, d)
    p: np.ndarray         # (T, M)
    sigma_x: np.ndarray   # (T,)
    sigma_xi: np.ndarray  # (T,)
    B: np.ndarray         # (T,)
    U: np.ndarray         # (T,)
    norms: np.ndarray     # (T, M): each model's beta_norms

    @classmethod
    def of(cls, models: Sequence[ModelParams]) -> "_ModelStack":
        stacked = {
            name: np.array([getattr(m, name) for m in models])
            for name in ("beta", "mu", "p", "sigma_x", "sigma_xi", "B", "U")
        }
        return cls(**stacked, norms=_norm(stacked["beta"]))


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
        object.__setattr__(self, "M", _check_int(self.M, "M", 1, DimensionError))
        object.__setattr__(self, "x", _frozen_array(self.x, "x"))
        s = _frozen_array(self.s, "s", dtype=None)
        object.__setattr__(self, "y", _frozen_array(self.y, "y"))
        if self.x.ndim != 2 or s.shape != (self.x.shape[0],) or self.y.shape != (
            self.x.shape[0],
        ):
            raise DimensionError("inconsistent dataset array shapes")
        _check_labels(s, self.M, self.n)
        s = s.astype(np.int64, copy=False)  # a new array only if s is not int64 already
        s.setflags(write=False)
        object.__setattr__(self, "s", s)

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
        """Write a header and one ``%.17g`` row per observation, CRLF-terminated.

        Rows are formatted from Python floats and ints, _CSV_CHUNK at a time,
        which bounds the text held in memory whatever n.
        """
        header = [f"x_{j + 1}" for j in range(self.d)] + ["s", "y"]
        row = ",".join(["%.17g"] * self.d + ["%d", "%.17g"]) + "\r\n"
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\r\n")
            for start in range(0, self.n, _CSV_CHUNK):
                rows = slice(start, start + _CSV_CHUNK)
                x, s, y = self.x[rows], self.s[rows] + 1, self.y[rows]
                columns = [*x.T.tolist(), s.tolist(), y.tolist()]
                fh.write("".join([row % values for values in zip(*columns)]))

    @classmethod
    def from_csv(cls, path: str | Path, M: int) -> "Dataset":
        """Read a ``to_csv`` file; any malformed content raises ``ConfigError``.

        An M that is not an integer >= 1 is a DimensionError before the file is read.
        """
        M = _check_int(M, "M", 1, DimensionError)
        with open(path) as fh:
            d = len(fh.readline().split(",")) - 2
            if d < 1:
                raise ConfigError(f"dataset CSV {path}: header needs x columns, s and y")
            try:
                with warnings.catch_warnings():
                    # no data rows is the ConfigError below, not a warning first
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data")
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
    params: ModelParams, n: int, seed: int | np.random.SeedSequence | np.random.Generator
) -> Dataset:
    """Draw n i.i.d. observations from the model; deterministic given seed.

    Rows come sorted by group.  The generator draws the group counts (one
    multinomial), then the (n, d) standard normal features, then the n noise
    terms (skipped when sigma_xi == 0).  Rows are exchangeable, so the order
    changes no statistic.  A draw that overflows is rejected as non-finite
    by the ``Dataset`` constructor.
    """
    _check_model(params, n)
    rng = _rng(seed)
    counts = rng.multinomial(n, params.p)
    s = np.repeat(np.arange(params.M, dtype=np.int64), counts)
    with np.errstate(over="ignore", invalid="ignore"):
        x = rng.standard_normal((n, params.d))
        x *= params.sigma_x
        y = params.sigma_xi * rng.standard_normal(n) if params.sigma_xi > 0.0 else np.zeros(n)
        stops = np.cumsum(counts)
        for g, (start, stop) in enumerate(zip(stops - counts, stops)):
            block = x[start:stop]
            block += params.mu[g]
            y[start:stop] += block @ params.beta[g]
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
        """Vectorized evaluation over the rows of a 2-d x, each with an integer label in [0, M)."""
        x = np.asarray(x, dtype=float)
        s = np.asarray(s)
        if x.ndim != 2:
            raise DimensionError(f"x must be 2-d, one row per label, got shape {x.shape}")
        if x.shape[1] != self.d:
            raise DimensionError(f"x has dimension {x.shape[1]}, expected {self.d}")
        _check_labels(s, self.M, len(x))
        s = s.astype(np.int64, copy=False)
        return np.einsum("ij,ij->i", self.w[s], x) + self.b[s]


def _check_labels(s: np.ndarray, M: int, rows: int) -> None:
    """Raise DimensionError unless ``s`` holds one integer in [0, M) for each of ``rows`` rows."""
    if s.shape != (rows,):
        raise DimensionError(f"need one group label per row of x: {s.shape} for {rows} rows")
    if s.size and not (s.dtype.kind in "iu" and s.min() >= 0 and s.max() < M):
        raise DimensionError(f"group labels out of range: need integers in [0, {M})")


def _check_regressors(params: ModelParams, *regressors: GroupAffineRegressor) -> None:
    """Raise DimensionError unless every regressor's w has the model's shape (M, d)."""
    shapes = [f.w.shape for f in regressors]
    if any(shape != (params.M, params.d) for shape in shapes):
        raise DimensionError(
            f"regressor w shapes {' and '.join(map(str, shapes))} do not match the "
            f"model's (M, d) = ({params.M}, {params.d})"
        )


def _check_group(s, M: int) -> int:
    """The group index ``s``, once it is an integer in [0, M)."""
    if not (_is_int(s) and 0 <= s < M):
        raise DimensionError(f"group index {s!r} out of range [0, {M}) or not an integer")
    return int(s)


def evaluate(regressor: GroupAffineRegressor, x: Sequence[float], s: int) -> float:
    """Evaluate <w_s, x> + b_s at a single point."""
    x = np.asarray(x, dtype=float)
    if x.shape != (regressor.d,):
        raise DimensionError(f"x has shape {x.shape}, expected ({regressor.d},)")
    s = _check_group(s, regressor.M)
    return float(regressor.w[s] @ x + regressor.b[s])
