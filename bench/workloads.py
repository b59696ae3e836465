"""Seeded inputs and op lists for the three benchmark workloads.

Every workload is a fixed, seed-determined list of passes, each a list of
ops; the runner cycles through them in whole passes. qcreg receives only what is generated here:
catalog spec strings, config dicts and CSV grid files.

* catalog-cli:   cold ``qcreg analyze|profile|extremal`` subprocesses over
  the four catalog families, one op per family.
* catalog-batch: warm in-process ``run_analysis`` calls over dense circle
  domains with the extremal diagnostics on.
* grid-cli:      cold ``qcreg analyze`` on sampled-mu grids (257^2, 1025^2)
  and ``qcreg elliptic`` on a varying det-1 matrix grid (65^2), each under
  bilinear and nearest interpolation, over two alternating passes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("catalog-cli", "catalog-batch", "grid-cli")

FAMILIES = ("radial_stretch", "spiral", "affine", "power_spiral")
COMMANDS = ("analyze", "profile", "extremal")
INTERPOLATIONS = ("bilinear", "nearest")

#: sampled-mu grid sizes and the matrix grid size of grid-cli
MU_GRID_SIZES = (257, 1025)
MATRIX_GRID_SIZE = 65
#: grids cover [-GRID_HALF_WIDTH, GRID_HALF_WIDTH]^2, around the unit analysis disk
GRID_HALF_WIDTH = 1.05
#: seeded grid fields: Fourier modes per field, range of the bound k = max |mu|
FIELD_MODES = 3
FIELD_K_RANGE = (0.2, 0.6)

#: catalog-batch circle domain: the origin plus 8 centers on a ring of this
#: radius, 32 log-spaced radii -> 32 + 8 * 26 = 240 admissible circles
BATCH_RING_RADIUS = 0.4
BATCH_DOMAIN_RADII = {"min": 0.05, "max": 1.0, "count": 32}
BATCH_PROFILE_RADII = {"min": 1e-3, "max": 1.0, "count": 65}
BATCH_CONFIGS_PER_FAMILY = 2


@dataclass(frozen=True)
class Expect:
    """What the correctness check needs to know about an op's input."""

    subject_kind: str  # 'catalog' | 'sampled-mu' | 'matrix', as qcreg names them
    K: float  # closed-form distortion ratio of the input
    family: str | None = None  # catalog family, for closed-form anchors


@dataclass(frozen=True)
class Op:
    """One unit of work: a CLI argv (CLI workloads) or a config (batch)."""

    key: str  # identical keys must give byte-identical reports
    expect: Expect
    argv: tuple[str, ...] = ()
    config: dict | None = None
    out_json: str | None = None  # --out target, read back as the report
    csv_dir: str | None = None  # --csv-dir target, checked after the op
    kind: str = ""  # traced counters are also broken down by kind


def _r(x: float) -> float:
    return round(x, 4)


def catalog_subject(family: str, rng: random.Random) -> tuple[str, float]:
    """A seeded catalog spec string and its closed-form K = (1+k)/(1-k)."""
    if family == "radial_stretch":
        K = _r(rng.uniform(1.2, 4.0))
        return f"radial_stretch(K={K!r})", K
    if family == "spiral":
        gamma = _r(rng.choice((-1, 1)) * rng.uniform(0.2, 2.0))
        k = abs(1j * gamma / (2.0 + 1j * gamma))
        return f"spiral(gamma={gamma!r})", (1 + k) / (1 - k)
    if family == "affine":
        mag, arg = _r(rng.uniform(0.1, 0.6)), _r(rng.uniform(0.0, 2 * math.pi))
        b = complex(_r(mag * math.cos(arg)), _r(mag * math.sin(arg)))
        k = abs(b)
        return f"affine(a=1.0,b={b.real!r}{b.imag:+}j)", (1 + k) / (1 - k)
    if family == "power_spiral":
        alpha = _r(rng.uniform(0.3, 0.95))
        gamma = _r(rng.choice((-1, 1)) * rng.uniform(0.1, 1.5))
        s = complex(alpha - 1.0, gamma)
        k = abs(s / (s + 2.0))
        return f"power_spiral(alpha={alpha!r},gamma={gamma!r})", (1 + k) / (1 - k)
    raise ValueError(family)


def catalog_cli_ops(seed: int, work: Path) -> list[Op]:
    """One op per family; the command rotates over analyze, profile, extremal
    and the output path over stdout, --out, and --out with --csv-dir."""
    rng = random.Random(f"catalog-cli:{seed}")
    ops = []
    for i, family in enumerate(FAMILIES):
        subject, K = catalog_subject(family, rng)
        command = COMMANDS[i % 3]
        argv = [command, "--subject", subject]
        out_json = csv_dir = None
        if i % 3 >= 1:
            out_json = str(work / f"out-{i}.json")
            argv += ["--out", out_json]
        if i % 3 == 2:
            csv_dir = str(work / f"csv-{i}")
            argv += ["--csv-dir", csv_dir]
        ops.append(Op(key=f"{command}:{subject}", expect=Expect("catalog", K, family),
                      argv=tuple(argv), out_json=out_json, csv_dir=csv_dir, kind=command))
    return ops


def batch_domain() -> dict:
    ring = [
        [_r(BATCH_RING_RADIUS * math.cos(j * math.pi / 4)),
         _r(BATCH_RING_RADIUS * math.sin(j * math.pi / 4))]
        for j in range(8)
    ]
    return {"centers": [[0.0, 0.0]] + ring, "radii": dict(BATCH_DOMAIN_RADII)}


def catalog_batch_ops(seed: int) -> list[Op]:
    rng = random.Random(f"catalog-batch:{seed}")
    ops = []
    for family in FAMILIES:
        for _ in range(BATCH_CONFIGS_PER_FAMILY):
            subject, K = catalog_subject(family, rng)
            config = {
                "subject": subject,
                "domain": batch_domain(),
                "radii": dict(BATCH_PROFILE_RADII),
                "diagnostics": {"geometry": True, "extremal": True},
            }
            ops.append(Op(key=f"batch:{subject}", expect=Expect("catalog", K, family),
                          config=config, kind="run_analysis"))
    return ops


@dataclass(frozen=True)
class FieldSpec:
    """Seeded smooth mu(x, y) = k * sum_j a_j exp(i (w_j . (x, y) + p_j)).

    The amplitudes sum to 1, so |mu| <= k everywhere.
    """

    k: float
    amps: tuple[float, ...]
    freqs: tuple[tuple[float, float], ...]
    phases: tuple[float, ...]

    @property
    def K(self) -> float:
        return (1 + self.k) / (1 - self.k)

    def mu(self, x, y):
        import numpy as np

        out = np.zeros(np.broadcast(x, y).shape, dtype=complex)
        for a, (wx, wy), p in zip(self.amps, self.freqs, self.phases):
            out += a * np.exp(1j * (wx * x + wy * y + p))
        return self.k * out


def field_spec(rng: random.Random) -> FieldSpec:
    raw = [rng.uniform(0.5, 1.0) for _ in range(FIELD_MODES)]
    total = sum(raw)
    return FieldSpec(
        k=_r(rng.uniform(*FIELD_K_RANGE)),
        amps=tuple(a / total for a in raw),
        freqs=tuple((rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(FIELD_MODES)),
        phases=tuple(rng.uniform(0, 2 * math.pi) for _ in range(FIELD_MODES)),
    )


def grid_axes(n: int):
    import numpy as np

    return np.linspace(-GRID_HALF_WIDTH, GRID_HALF_WIDTH, n)


def grid_fields(seed: int) -> tuple[dict[int, FieldSpec], FieldSpec]:
    """Field specs for the sampled-mu grids and for the matrix grid."""
    rng = random.Random(f"grid-cli:{seed}")
    mu_specs = {n: field_spec(rng) for n in MU_GRID_SIZES}
    return mu_specs, field_spec(rng)


def write_grid_inputs(seed: int, work: Path) -> None:
    """Write the grid-cli CSVs and sidecars through qcreg's own io layer."""
    import numpy as np
    from qcreg import SampledField, matrix_from_beltrami, save_matrix_field, save_sampled_field

    mu_specs, matrix_spec = grid_fields(seed)
    h = 2 * GRID_HALF_WIDTH
    origin = complex(-GRID_HALF_WIDTH, -GRID_HALF_WIDTH)
    for n, spec in mu_specs.items():
        x = grid_axes(n)
        values = spec.mu(x[None, :], x[:, None])
        save_sampled_field(
            work / f"mu-{n}.csv",
            SampledField(origin=origin, spacing=h / (n - 1), values=values, k_max=spec.k),
        )
    n = MATRIX_GRID_SIZE
    x = grid_axes(n)
    entries = matrix_from_beltrami(matrix_spec.mu(x[None, :], x[:, None]))
    save_matrix_field(work / f"matrix-{n}.csv", entries, origin, h / (n - 1), matrix_spec.K)


def grid_cli_passes(seed: int, work: Path) -> list[list[Op]]:
    """Two passes of four ops: `analyze` on the 257^2 grid under one
    interpolation and on the 1025^2 grid under the other, swapped between
    the passes, and `elliptic` on the matrix grid under both. Each pass thus
    holds one op of each interpolation on each grid kind, so the two cost
    about the same and a run that ends after an odd number of passes keeps
    the mix."""
    mu_specs, matrix_spec = grid_fields(seed)
    small, large = MU_GRID_SIZES
    # Under bilinear interpolation the varying det-1 grid has |det A - 1| ~ 1e-4
    # between nodes, so qcreg exits 2 on it; that op stays in and counts as failed.
    n = MATRIX_GRID_SIZE
    elliptic = [
        Op(key=f"elliptic:{n}:{interp}", expect=Expect("matrix", matrix_spec.K),
           argv=("elliptic", "--subject", str(work / f"matrix-{n}.csv"),
                 "--interpolation", interp),
           kind=f"elliptic-{n}-{interp}")
        for interp in INTERPOLATIONS
    ]

    def analyze(m: int, interp: str) -> Op:
        return Op(key=f"analyze:{m}:{interp}", expect=Expect("sampled-mu", mu_specs[m].K),
                  argv=("analyze", "--subject", str(work / f"mu-{m}.csv"),
                        "--interpolation", interp),
                  kind=f"analyze-{m}-{interp}")

    return [[analyze(small, first), analyze(large, second)] + elliptic
            for first, second in (INTERPOLATIONS, INTERPOLATIONS[::-1])]
