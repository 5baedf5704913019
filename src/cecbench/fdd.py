"""PCA-based fault detection for the edge computation task.

Offline fit on fault-free data (standardize, eigendecompose the correlation
matrix, derive SPE and T-squared control limits), online scoring of incoming
samples, a synthetic correlated-process generator standing in for real plant
exports, and CSV ingestion for user-supplied data.
"""
from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._checks import integer, real
from .channel import spawn_stream

__all__ = [
    "ProcessSample",
    "PcaModel",
    "DetectionResult",
    "CsvSchema",
    "CsvParseError",
    "MeanShift",
    "Drift",
    "VarianceBump",
    "fit_pca",
    "score",
    "score_stream",
    "residual_contributions",
    "generate_synthetic_te",
    "ingest_csv",
    "write_detections",
]


@dataclass(frozen=True, slots=True)
class ProcessSample:
    """One timestamped vector of process-variable readings."""

    timestamp: float
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1:
            raise ValueError("values must be a 1-D vector")
        if not np.isfinite(vals).all():
            raise ValueError("all readings must be finite")
        object.__setattr__(self, "values", vals)

    # Readings compare by value; the generated field hash still rejects the array.
    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.timestamp == other.timestamp and np.array_equal(self.values, other.values)


def _trusted_sample(timestamp: float, values: np.ndarray) -> ProcessSample:
    """A ProcessSample built without __post_init__'s checks.

    Only for a 1-D float64 row of a matrix already checked to be finite.
    """
    sample = object.__new__(ProcessSample)
    object.__setattr__(sample, "timestamp", timestamp)
    object.__setattr__(sample, "values", values)
    return sample


@dataclass(frozen=True)
class PcaModel:
    """Offline-fitted monitoring model: loadings, spectra, and control limits."""

    mean: np.ndarray
    scale: np.ndarray
    loadings: np.ndarray  # (n_vars, n_components), orthonormal columns
    eigenvalues: np.ndarray
    residual_eigenvalues: np.ndarray
    spe_limit: float
    t2_limit: float
    alpha: float
    n_samples: int
    degenerate_residual: bool = False

    @property
    def n_components(self) -> int:
        return self.loadings.shape[1]

    @property
    def n_vars(self) -> int:
        return self.loadings.shape[0]


@dataclass(frozen=True, slots=True)
class DetectionResult:
    timestamp: float
    spe: float
    t2: float
    spe_limit: float
    t2_limit: float
    fault_flag: bool


class CsvParseError(ValueError):
    """CSV ingestion failure, locating the offending line and column."""


@dataclass(frozen=True)
class CsvSchema:
    has_header: bool = False
    delimiter: str = ","

    def __post_init__(self) -> None:
        # numpy's reader and the csv module split alike on any one character
        # but a line break or the csv quote character.
        d = self.delimiter
        if not isinstance(d, str) or len(d) != 1 or d in '\n\r"':
            raise ValueError(f"delimiter must be one character but \\n, \\r or '\"', got {d!r}")


@dataclass(frozen=True)
class MeanShift:
    """Step change on a set of variables, magnitude in training-sigma units."""

    variables: tuple[int, ...]
    magnitude: float


@dataclass(frozen=True)
class Drift:
    """Linear ramp on one variable, slope in sigma units per sample."""

    variable: int
    slope: float


@dataclass(frozen=True)
class VarianceBump:
    """Inflate one variable's fluctuation around its mean by a factor."""

    variable: int
    factor: float

    def __post_init__(self) -> None:
        real("factor", self.factor, "(0, inf)")


FaultSpec = MeanShift | Drift | VarianceBump


def _as_matrix(samples: Sequence[ProcessSample]) -> np.ndarray:
    if not samples:
        raise ValueError("no samples")
    dims = {s.values.shape[0] for s in samples}
    if len(dims) != 1:
        raise ValueError(f"inconsistent sample dimensions: {sorted(dims)}")
    return np.concatenate([s.values for s in samples]).reshape(len(samples), dims.pop())


def fit_pca(
    training: Sequence[ProcessSample], n_components: int = 17, alpha: float = 0.01
) -> PcaModel:
    """Offline step: fit the monitoring model on fault-free data.

    Standardizes by the training mean/std, eigendecomposes the sample
    correlation matrix, keeps n_components directions, and derives the
    T-squared limit from the F distribution and the SPE limit from the
    Jackson-Mudholkar approximation over the residual eigenvalue moments.
    """
    # Imported here, not at module level: only fitting needs the quantiles.
    from ._quantiles import f_isf, norm_isf

    real("alpha", alpha, "(0, 1)")
    x = _as_matrix(training)
    n, d = x.shape
    real("n_components", integer("n_components", n_components), f"[1, {d}]")
    if n < 10 * d:
        raise ValueError(f"need at least 10x dimension = {10 * d} training samples, got {n}")
    mean = x.mean(axis=0)
    scale = x.std(axis=0, ddof=1)
    constant = np.flatnonzero(scale == 0)
    if constant.size:
        raise ValueError(f"constant training columns: {constant.tolist()}")
    z = (x - mean) / scale
    corr = (z.T @ z) / (n - 1)
    eigvals, eigvecs = np.linalg.eigh(corr)
    order = np.argsort(eigvals)[::-1]
    eigvals = np.clip(eigvals[order], 0.0, None)
    eigvecs = eigvecs[:, order]
    # Deterministic sign: first non-negligible coordinate of each loading >= 0.
    for j in range(d):
        col = eigvecs[:, j]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        if nz.size and col[nz[0]] < 0:
            eigvecs[:, j] = -col

    loadings = eigvecs[:, :n_components]
    retained = eigvals[:n_components]
    residual = eigvals[n_components:]

    k = n_components
    t2_limit = (
        k * (n**2 - 1) / (n * (n - k)) * f_isf(k, n - k, alpha)
    )

    theta1 = float(residual.sum())
    theta2 = float((residual**2).sum())
    theta3 = float((residual**3).sum())
    degenerate = theta1 <= 1e-12 or theta2 <= 0.0
    if degenerate:
        warnings.warn(
            "residual subspace is numerically empty; the SPE limit is degenerate",
            UserWarning,
            stacklevel=2,
        )
        spe_limit = 0.0
    else:
        h0 = 1.0 - 2.0 * theta1 * theta3 / (3.0 * theta2**2)
        if h0 <= 0:
            h0 = 1e-6  # standard guard for pathological residual spectra
        c_alpha = norm_isf(alpha)
        base = (
            c_alpha * math.sqrt(2.0 * theta2 * h0**2) / theta1
            + 1.0
            + theta2 * h0 * (h0 - 1.0) / theta1**2
        )
        # For alpha near 1 the normal approximation falls below 0, and a
        # fractional power of it would be complex; the limit is then 0.
        spe_limit = theta1 * max(base, 0.0) ** (1.0 / h0)

    return PcaModel(
        mean=mean,
        scale=scale,
        loadings=loadings,
        eigenvalues=retained,
        residual_eigenvalues=residual,
        spe_limit=spe_limit,
        t2_limit=t2_limit,
        alpha=alpha,
        n_samples=n,
        degenerate_residual=degenerate,
    )


# Rows scored per matrix. Scoring a whole stream as one matrix costs memory in
# proportion to its length; 512 rows already amortize the per-call overhead.
_BLOCK_ROWS = 512


def _project(model: PcaModel, x: np.ndarray) -> np.ndarray:
    """Standardize x in place and leave its residual there; return its scores.

    x is a fresh (rows, n_vars) float matrix owned by the caller.
    """
    if x.shape[1] != model.n_vars:
        raise ValueError(f"sample dimension {x.shape[1]} != model dimension {model.n_vars}")
    x -= model.mean
    x /= model.scale
    scores = x @ model.loadings
    x -= scores @ model.loadings.T
    return scores


def _score_block(model: PcaModel, samples: Sequence[ProcessSample]) -> list[DetectionResult]:
    """Score up to _BLOCK_ROWS samples as one matrix."""
    x = _as_matrix(samples)
    scores = _project(model, x)
    spe = np.einsum("ij,ij->i", x, x)
    scores *= scores
    t2 = (scores / model.eigenvalues).sum(axis=1)
    spe_limit, t2_limit = model.spe_limit, model.t2_limit
    flags = (spe > spe_limit) | (t2 > t2_limit)
    return [
        DetectionResult(s.timestamp, q, t, spe_limit, t2_limit, f)
        for s, q, t, f in zip(samples, spe.tolist(), t2.tolist(), flags.tolist())
    ]


def score(model: PcaModel, sample: ProcessSample) -> DetectionResult:
    """Online step: SPE and T-squared of one sample against the fitted model."""
    return _score_block(model, [sample])[0]


def score_stream(model: PcaModel, samples: Sequence[ProcessSample]) -> list[DetectionResult]:
    """Score samples in order, _BLOCK_ROWS rows per matrix; score() is the one-row case."""
    results: list[DetectionResult] = []
    for start in range(0, len(samples), _BLOCK_ROWS):
        results.extend(_score_block(model, samples[start : start + _BLOCK_ROWS]))
    return results


def residual_contributions(model: PcaModel, sample: ProcessSample) -> list[tuple[int, float]]:
    """Per-variable squared residual contributions, sorted descending.

    A lightweight stand-in for knowledge-base diagnosis: the top entries point
    at the sensors most responsible for an SPE excursion.
    """
    x = sample.values[np.newaxis].copy()
    _project(model, x)
    contrib = x[0] ** 2
    order = np.argsort(contrib)[::-1]
    return list(zip(order.tolist(), contrib[order].tolist()))


def _random_correlation(rng: np.random.Generator, d: int, condition_number: float) -> np.ndarray:
    """Random SPD correlation matrix with a controlled eigenvalue spread."""
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    spectrum = np.geomspace(condition_number, 1.0, d)
    cov = (q * spectrum) @ q.T
    inv_sd = 1.0 / np.sqrt(np.diag(cov))
    return cov * np.outer(inv_sd, inv_sd)


def generate_synthetic_te(
    n_normal: int,
    n_fault: int,
    fault_spec: FaultSpec | None,
    seed: int,
    n_vars: int = 52,
    condition_number: float = 50.0,
) -> tuple[list[ProcessSample], list[ProcessSample]]:
    """Correlated multivariate-Gaussian stand-in for a wide process dataset.

    Returns (training, test): the training stream holds n_normal fault-free
    samples; the test stream holds a fresh n_normal fault-free stretch
    followed by n_fault samples with the requested fault injected from the
    onset onward. Deterministic given the seed.
    """
    integer("n_normal", n_normal, 1)
    integer("n_fault", n_fault, 0)
    if n_fault > 0:
        if fault_spec is None:
            raise ValueError("a fault_spec is required when n_fault > 0")
        if isinstance(fault_spec, MeanShift):
            faulted = fault_spec.variables
        elif isinstance(fault_spec, (Drift, VarianceBump)):
            faulted = (fault_spec.variable,)
        else:
            raise ValueError(f"unknown fault spec {fault_spec!r}")
        for v in faulted:
            real("fault variable", integer("fault variable", v), f"[0, {n_vars})")
    rng = spawn_stream(seed, 0xFDD)
    corr = _random_correlation(rng, n_vars, condition_number)
    chol = np.linalg.cholesky(corr)
    base_mean = rng.uniform(-1.0, 1.0, size=n_vars) * 10.0
    base_scale = rng.uniform(0.5, 2.0, size=n_vars)

    def draw(n: int) -> np.ndarray:
        return (rng.normal(size=(n, n_vars)) @ chol.T) * base_scale + base_mean

    train = draw(n_normal)
    test = draw(n_normal + n_fault)

    if n_fault > 0:
        tail = test[n_normal:]
        if isinstance(fault_spec, MeanShift):
            for v in fault_spec.variables:
                tail[:, v] += fault_spec.magnitude * base_scale[v]
        elif isinstance(fault_spec, Drift):
            ramp = fault_spec.slope * base_scale[fault_spec.variable] * np.arange(1, n_fault + 1)
            tail[:, fault_spec.variable] += ramp
        else:
            v = fault_spec.variable
            center = base_mean[v]
            tail[:, v] = center + (tail[:, v] - center) * math.sqrt(fault_spec.factor)

    for x in (train, test):
        if not np.isfinite(x).all():
            raise ValueError("all readings must be finite")
    # Both matrices are checked; each row is a 1-D float64 view.
    training = [_trusted_sample(float(t), row) for t, row in enumerate(train)]
    test_stream = [_trusted_sample(float(n_normal + t), row) for t, row in enumerate(test)]
    return training, test_stream


def ingest_csv(path, schema: CsvSchema = CsvSchema()) -> list[ProcessSample]:
    """Parse a numeric CSV export into samples, in file order.

    A well-formed file is read in one pass by numpy's reader. Any other file
    is read by _scan_csv, whose result this always equals: it raises
    CsvParseError naming the line and column of the first malformed or
    non-finite cell, and an empty file yields an empty list with a warning.
    """
    x = _load_matrix(path, schema)
    if x is None:
        return _scan_csv(path, schema)
    # _load_matrix has checked the whole matrix; each row is a 1-D float64 view.
    return [_trusted_sample(float(t), row) for t, row in enumerate(x)]


# numpy's reader strips these ASCII separators around a number as whitespace;
# Python's float rejects them.
_FLOAT_REJECTS = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _load_matrix(path, schema: CsvSchema) -> np.ndarray | None:
    """The file's data rows as one matrix, or None where _scan_csv must decide."""
    try:
        with open(path, "rb") as raw:
            while chunk := raw.read(1 << 20):
                if any(sep in chunk for sep in _FLOAT_REJECTS):
                    return None
        with open(path, "r", encoding="utf-8") as fh:
            # A quote in the header can open a field that runs on over later
            # lines; only the csv module follows it.
            if schema.has_header and '"' in fh.readline():
                return None
            with warnings.catch_warnings():
                warnings.filterwarnings(
                    "ignore", "loadtxt: input contained no data", UserWarning
                )
                x = np.loadtxt(
                    fh, dtype=np.float64, delimiter=schema.delimiter, comments=None, ndmin=2
                )
    except ValueError:
        return None
    return x if x.size and np.isfinite(x).all() else None


def _scan_csv(path, schema: CsvSchema) -> list[ProcessSample]:
    """Read a CSV cell by cell with the csv module and Python's float.

    This is the reference for ingest_csv and the source of its errors and
    its empty-file warning, which names the caller of ingest_csv.
    """
    samples: list[ProcessSample] = []
    dim: int | None = None
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh, delimiter=schema.delimiter)
        for lineno, row in enumerate(reader, start=1):
            if lineno == 1 and schema.has_header:
                continue
            if not row or all(cell.strip() == "" for cell in row):
                continue
            values = []
            for col, cell in enumerate(row, start=1):
                try:
                    value = float(cell)
                except ValueError:
                    raise CsvParseError(
                        f"{path}: line {lineno}, column {col}: not a number: {cell!r}"
                    ) from None
                if not math.isfinite(value):
                    raise CsvParseError(
                        f"{path}: line {lineno}, column {col}: not finite: {cell!r}"
                    )
                values.append(value)
            if dim is None:
                dim = len(values)
            elif len(values) != dim:
                raise CsvParseError(
                    f"{path}: line {lineno}: expected {dim} columns, got {len(values)}"
                )
            samples.append(ProcessSample(float(len(samples)), np.asarray(values)))
    if not samples:
        warnings.warn(f"{path}: no data rows found", UserWarning, stacklevel=3)
    return samples


def write_detections(results: Sequence[DetectionResult], path) -> None:
    """Write detection output CSV: timestamp,spe,t2,spe_limit,t2_limit,fault_flag."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("timestamp,spe,t2,spe_limit,t2_limit,fault_flag\n")
        fh.writelines(_detection_lines(results))


def _detection_lines(results: Sequence[DetectionResult]):
    # Results scored together share their limit objects, so the limits are
    # formatted once per run of the same two objects.
    spe_limit = t2_limit = limits = None
    for r in results:
        if r.spe_limit is not spe_limit or r.t2_limit is not t2_limit:
            spe_limit, t2_limit = r.spe_limit, r.t2_limit
            limits = f"{spe_limit:.10g},{t2_limit:.10g}"
        yield f"{r.timestamp:.10g},{r.spe:.10g},{r.t2:.10g},{limits},{int(r.fault_flag)}\n"
