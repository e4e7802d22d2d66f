"""Seeded two-domain classification problems and CSV interchange.

A DomainPair keeps labeled source samples, unlabeled target samples, and
an evaluation-only copy of the target labels that the training API never
sees. Generators are pure functions of (parameters, seed).

CSV schema: header ``f0,f1,...,f{k-1},label``; the label column may be
absent in target files, which disables evaluation for that pair.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

Array = np.ndarray


class CsvSchemaError(ValueError):
    """Malformed or inconsistent dataset file."""


@dataclass(frozen=True)
class ShiftSpec:
    """How the target distribution differs from the source.

    ``noise_std`` is the sample noise used by the generator itself (both
    domains); the shift proper is a rotation about the sample centroid
    and/or a per-dimension affine map, applied to target points only.
    """

    kind: str = "rotation"  # rotation | affine | both
    rotation_deg: float = 45.0
    scale: tuple[float, ...] = (1.0, 1.0)
    translate: tuple[float, ...] = (0.0, 0.0)
    noise_std: float = 0.1

    def __post_init__(self):
        if self.kind not in ("rotation", "affine", "both"):
            raise ValueError(f"unknown shift kind {self.kind!r}")
        if not (0.0 <= self.rotation_deg < 360.0):
            raise ValueError("rotation_deg must be in [0, 360)")
        if self.noise_std < 0.0:
            raise ValueError("noise_std must be nonnegative")


@dataclass
class DomainPair:
    x_s: Array
    y_s: Array
    x_t: Array
    y_t_eval: Array | None
    num_classes: int

    def __post_init__(self):
        self.x_s = np.asarray(self.x_s, dtype=np.float64)
        self.x_t = np.asarray(self.x_t, dtype=np.float64)
        self.y_s = np.asarray(self.y_s, dtype=np.int64)
        if self.y_t_eval is not None:
            self.y_t_eval = np.asarray(self.y_t_eval, dtype=np.int64)
        if self.x_s.ndim != 2 or self.x_t.ndim != 2:
            raise CsvSchemaError("sample matrices must be 2-d")
        if self.x_s.shape[1] != self.x_t.shape[1]:
            raise CsvSchemaError(
                f"feature widths disagree: source {self.x_s.shape[1]} "
                f"vs target {self.x_t.shape[1]}"
            )
        if len(self.y_s) != len(self.x_s):
            raise CsvSchemaError("source labels do not match sample count")
        for y in (self.y_s, self.y_t_eval):
            if y is not None and len(y) and (y.min() < 0 or y.max() >= self.num_classes):
                raise CsvSchemaError(f"labels outside [0, {self.num_classes})")

    @property
    def input_dim(self) -> int:
        return self.x_s.shape[1]


def _rotate_about_centroid(x: Array, degrees: float, centroid: Array) -> Array:
    theta = np.deg2rad(degrees)
    rot = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    if x.shape[1] != 2:
        raise ValueError("rotation shift is defined for 2-d inputs")
    return (x - centroid) @ rot.T + centroid


def apply_shift(x: Array, shift: ShiftSpec, centroid: Array | None = None) -> Array:
    """Rotation about the centroid, then the affine map, per shift.kind."""
    out = np.array(x, dtype=np.float64)
    if centroid is None:
        centroid = out.mean(axis=0)
    # a zero-degree rotation must be exact: recentering costs one rounding
    if shift.kind in ("rotation", "both") and shift.rotation_deg != 0.0:
        out = _rotate_about_centroid(out, shift.rotation_deg, centroid)
    if shift.kind in ("affine", "both"):
        scale = np.asarray(shift.scale, dtype=np.float64)
        translate = np.asarray(shift.translate, dtype=np.float64)
        if scale.shape != (out.shape[1],) or translate.shape != (out.shape[1],):
            raise ValueError(
                f"scale/translate must have width {out.shape[1]}, "
                f"got {scale.shape} and {translate.shape}"
            )
        out = out * scale + translate
    return out


def _two_moons(n: int, noise_std: float, rng: np.random.Generator) -> tuple[Array, Array]:
    # standard interleaved half circles, evenly spaced angles plus noise
    n_out = (n + 1) // 2
    n_in = n - n_out
    t_out = np.linspace(0.0, np.pi, n_out)
    t_in = np.linspace(0.0, np.pi, n_in)
    x = np.concatenate(
        [
            np.stack([np.cos(t_out), np.sin(t_out)], axis=1),
            np.stack([1.0 - np.cos(t_in), 0.5 - np.sin(t_in)], axis=1),
        ]
    )
    y = np.concatenate([np.zeros(n_out, dtype=np.int64), np.ones(n_in, dtype=np.int64)])
    if noise_std > 0.0:
        x = x + rng.normal(scale=noise_std, size=x.shape)
    perm = rng.permutation(n)
    return x[perm], y[perm]


def gen_two_moons_pair(n_per_domain: int, shift: ShiftSpec, seed: int) -> DomainPair:
    """Two-moons source and its shifted copy as the target.

    One draw is shared by both domains, so a zero shift gives pointwise
    equal domains and a pure rotation is an exact isometry of the sample.
    """
    if n_per_domain < 4:
        raise ValueError("need at least 2 samples per class")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    x_s, y_s = _two_moons(n_per_domain, shift.noise_std, rng)
    x_t = apply_shift(x_s, shift, centroid=x_s.mean(axis=0))
    return DomainPair(x_s=x_s, y_s=y_s, x_t=x_t, y_t_eval=y_s.copy(), num_classes=2)


def _balanced_counts(n: int, c: int) -> list[int]:
    base, extra = divmod(n, c)
    return [base + (1 if i < extra else 0) for i in range(c)]


def _gaussian_mixture(
    means: Array, covs: Array, counts: list[int], rng: np.random.Generator
) -> tuple[Array, Array]:
    xs, ys = [], []
    for cls, (mean, cov, cnt) in enumerate(zip(means, covs, counts)):
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as err:
            raise ValueError(f"covariance for class {cls} is not positive definite") from err
        z = rng.standard_normal((cnt, len(mean)))
        xs.append(z @ chol.T + mean)
        ys.append(np.full(cnt, cls, dtype=np.int64))
    x = np.concatenate(xs)
    y = np.concatenate(ys)
    perm = rng.permutation(len(y))
    return x[perm], y[perm]


def gen_gaussian_shift_pair(
    n_per_domain: int,
    num_classes: int,
    means,
    covariances,
    shift: ShiftSpec,
    seed: int,
) -> DomainPair:
    """Gaussian mixture source; independently drawn, shifted mixture target.

    Source and target use independent RNG streams split from the seed, so
    a zero shift gives identically distributed (not identical) domains.
    """
    if num_classes < 2:
        raise ValueError("need at least 2 classes")
    means = np.asarray(means, dtype=np.float64)
    if means.ndim != 2 or means.shape[0] != num_classes:
        raise ValueError(f"means must be [{num_classes}, k], got {means.shape}")
    if len(np.unique(means, axis=0)) != num_classes:
        raise ValueError("class means must be distinct")
    covariances = np.asarray(covariances, dtype=np.float64)
    if covariances.ndim == 2:
        covariances = np.repeat(covariances[None, :, :], num_classes, axis=0)
    counts = _balanced_counts(n_per_domain, num_classes)

    ss_source, ss_target = np.random.SeedSequence(seed).spawn(2)
    x_s, y_s = _gaussian_mixture(means, covariances, counts, np.random.default_rng(ss_source))
    x_t, y_t = _gaussian_mixture(means, covariances, counts, np.random.default_rng(ss_target))
    if shift.kind in ("affine", "both") or shift.rotation_deg != 0.0:
        x_t = apply_shift(x_t, shift)
    return DomainPair(
        x_s=x_s, y_s=y_s, x_t=x_t, y_t_eval=y_t, num_classes=len(means)
    )


def default_benchmark_shift() -> ShiftSpec:
    return ShiftSpec(kind="rotation", rotation_deg=45.0, noise_std=0.1)


def default_benchmark_pair(seed: int, n_per_domain: int = 500) -> DomainPair:
    """The default desk-scale benchmark: two moons rotated 45 degrees."""
    return gen_two_moons_pair(n_per_domain, default_benchmark_shift(), seed)


# ---------------------------------------------------------------------------
# CSV interchange
# ---------------------------------------------------------------------------


def save_domain_csv(path, x: Array, y: Array | None) -> None:
    """Write the header and one row per sample, the bytes ``csv.writer``
    writes: ``repr`` of each value, ``\\r\\n`` line ends."""
    x = np.asarray(x, dtype=np.float64)
    header = [f"f{i}" for i in range(x.shape[1])]
    table = x.tolist()
    if y is not None:
        header.append("label")
        for row, label in zip(table, np.asarray(y).astype(np.int64).tolist()):
            row.append(label)
    lines = [",".join(header), *(",".join(map(repr, row)) for row in table), ""]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("\r\n".join(lines))


def save_pair_csv(pair: DomainPair, source_path, target_path) -> None:
    save_domain_csv(source_path, pair.x_s, pair.y_s)
    save_domain_csv(target_path, pair.x_t, pair.y_t_eval)


def _parse_rows(text: str, dtype) -> np.ndarray:
    # from a file object, not a list of lines: given a list, the parser
    # joins a quote left open on one line with the next line
    return np.loadtxt(
        io.StringIO(text), dtype=dtype, delimiter=",", comments=None, quotechar='"',
        ndmin=1,
    )


def _data_lines(text: str) -> list[tuple[int, str]]:
    """(file line number, text) of each data row of the body ``text``; the
    header is line 1 and blank lines hold no row."""
    return [(lineno, line) for lineno, line in enumerate(text.split("\n"), start=2) if line]


def _load_domain_csv(path) -> tuple[Array, Array | None]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise CsvSchemaError(f"{path}: empty file") from None
        has_label = bool(header) and header[-1] == "label"
        feat_cols = header[:-1] if has_label else header
        expected = [f"f{i}" for i in range(len(feat_cols))]
        if feat_cols != expected:
            raise CsvSchemaError(
                f"{path}: header must be f0..f{{k-1}}[,label], got {header}"
            )
        text = fh.read()
    if not text.strip("\n"):
        raise CsvSchemaError(f"{path}: no data rows")
    dtype = [("x", "f8", (len(feat_cols),))] + ([("y", "i8")] if has_label else [])
    try:
        table = _parse_rows(text, dtype)
    except ValueError as err:
        # the parser's messages count rows in more than one way: parse the
        # rows one at a time to find the line of the first that fails
        for lineno, line in _data_lines(text):
            try:
                _parse_rows(line, dtype)
            except ValueError as row_err:
                reason = str(row_err).split(" at row ")[0]
                raise CsvSchemaError(f"{path}:{lineno}: {reason}") from None
        raise CsvSchemaError(f"{path}: {err}") from None
    x = np.ascontiguousarray(table["x"])
    y = np.ascontiguousarray(table["y"]) if has_label else None
    if y is not None and y.min() < 0:
        row = int((y < 0).argmax())
        raise CsvSchemaError(
            f"{path}:{_data_lines(text)[row][0]}: negative label {int(y[row])}"
        )
    # one pass over the parsed table; a non-finite sum can also be an
    # overflow of finite values, so only then look row by row (inf plus
    # -inf is invalid, not an overflow)
    with np.errstate(over="ignore", invalid="ignore"):
        total = float(x.sum())
    if not math.isfinite(total):
        bad = ~np.isfinite(x)
        if bad.any():
            row = int(bad.any(axis=1).argmax())
            col = int(bad[row].argmax())
            raise CsvSchemaError(
                f"{path}:{_data_lines(text)[row][0]}: non-finite value "
                f"{float(x[row, col])!r} in column f{col}"
            )
    return x, y


def load_pair_csv(source_path, target_path) -> DomainPair:
    """Parse a source/target CSV pair; target labels are optional."""
    x_s, y_s = _load_domain_csv(source_path)
    if y_s is None:
        raise CsvSchemaError(f"{source_path}: source file must have a label column")
    x_t, y_t = _load_domain_csv(target_path)
    if x_s.shape[1] != x_t.shape[1]:
        raise CsvSchemaError(
            f"feature widths disagree: {source_path} has {x_s.shape[1]}, "
            f"{target_path} has {x_t.shape[1]}"
        )
    labels = [y_s] if y_t is None else [y_s, y_t]
    num_classes = int(max(y.max() for y in labels)) + 1
    num_classes = max(num_classes, 2)
    return DomainPair(x_s=x_s, y_s=y_s, x_t=x_t, y_t_eval=y_t, num_classes=num_classes)
