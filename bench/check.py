"""Correctness check applied to every op, traced or not.

An op passes when it exited 0 and its JSON report satisfies

* closed-form anchors: alpha_classical = 1/K for the generated input, and
  the radial stretch has alpha_distortion = 1/K (its origin circles reach
  the sup C = K, and no circle can exceed K);
* the report's own identities: alpha_distortion = 1/C and
  alpha_improved = 1/(A C);
* the paper's invariants: alpha_improved >= alpha_distortion >=
  alpha_classical, A <= 1 + 1e-6, C <= K, and every mori / gronwall verdict
  present has passed;
* for coefficient-matrix subjects: alpha_eigen_ratio <= alpha_divergence.

`Tally` also requires repeats of one input to give byte-identical JSON.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import statistics
from pathlib import Path

#: relative tolerance of closed-form identities (pure float arithmetic)
IDENTITY_RTOL = 1e-12
#: slack of the bound-ordering invariants, as qcreg enforces them
ORDER_SLACK = 1e-9
#: slack of the isoperimetric sup A <= 1
ISO_SLACK = 1e-6
#: nonzero exit codes qcreg documents (config, invariant, numerical); others are crashes
DOCUMENTED_FAILURES = (1, 2, 3)


def _close(a: float, b: float, rtol: float = IDENTITY_RTOL) -> bool:
    return math.isclose(a, b, rel_tol=rtol, abs_tol=0.0)


def report_problems(report: dict, expect) -> list[str]:
    """Every way the parsed report violates the checks above (empty = ok)."""
    problems = []
    reg = report["regularity"]
    a_imp, a_dist, a_cls = reg["alpha_improved"], reg["alpha_distortion"], reg["alpha_classical"]
    A, C, K = reg["isoperimetric_sup"], reg["distortion_sup"], expect.K

    if not _close(a_cls, 1.0 / K):
        problems.append(f"alpha_classical {a_cls!r} != 1/K = {1.0 / K!r}")
    if expect.family == "radial_stretch" and not _close(a_dist, 1.0 / K, ORDER_SLACK):
        problems.append(f"radial stretch: alpha_distortion {a_dist!r} != 1/K = {1.0 / K!r}")
    if not _close(a_dist, 1.0 / C):
        problems.append(f"alpha_distortion {a_dist!r} != 1/C = {1.0 / C!r}")
    if not _close(a_imp, 1.0 / (A * C)):
        problems.append(f"alpha_improved {a_imp!r} != 1/(A C) = {1.0 / (A * C)!r}")
    if a_imp < a_dist - ORDER_SLACK:
        problems.append(f"alpha_improved {a_imp!r} < alpha_distortion {a_dist!r}")
    if a_dist < a_cls - ORDER_SLACK:
        problems.append(f"alpha_distortion {a_dist!r} < alpha_classical {a_cls!r}")
    if A > 1.0 + ISO_SLACK:
        problems.append(f"A = {A!r} > 1 + {ISO_SLACK}")
    if C > K * (1.0 + ORDER_SLACK):
        problems.append(f"C = {C!r} > K = {K!r}")
    for verdict in ("mori", "gronwall"):
        if reg.get(verdict) is not None and reg[verdict]["passed"] is not True:
            problems.append(f"{verdict} check did not pass")

    ell = report.get("elliptic")
    if expect.subject_kind == "matrix":
        if ell is None:
            problems.append("matrix subject without an elliptic block")
        elif ell["alpha_eigen_ratio"] > ell["alpha_divergence"] + ORDER_SLACK:
            problems.append("alpha_eigen_ratio exceeds alpha_divergence")
    return problems


def csv_problems(csv_dir, report: dict) -> list[str]:
    """The --csv-dir bundle must hold a regularity row matching the JSON."""
    path = Path(csv_dir) / "regularity.csv"
    if not path.is_file():
        return [f"missing {path.name} in the CSV bundle"]
    with open(path, newline="") as fh:
        row = next(csv.DictReader(fh))
    reg = report["regularity"]
    return [
        f"regularity.csv {key} {row[key]} != JSON {reg[key]!r}"
        for key in ("alpha_improved", "alpha_distortion", "alpha_classical")
        if float(row[key]) != reg[key]
    ]


def op_problems(exit_code: int, report_bytes: bytes | None, expect) -> list[str]:
    """Problems of one op outcome; a nonzero exit is a failure by itself."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    if not report_bytes:
        return ["no report"]
    try:
        report = json.loads(report_bytes)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    try:
        return report_problems(report, expect)
    except (KeyError, TypeError) as exc:
        return [f"report lacks {exc}"]


class Tally:
    """Outcome accounting for one run: every attempt stays in the denominator."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0  # wrong report, mismatched repeat or crash
        self.ok_seconds: list[float] = []
        self.busy_seconds = 0.0  # summed over every attempt, failed ones too
        self.peak_rss_kb = 0
        self.digests: dict[str, str] = {}
        self.first_problems: list[str] = []

    def record(self, key: str, seconds: float, exit_code: int, report_bytes, problems,
               rss_kb: int = 0) -> bool:
        """Account one op; returns True when it succeeded."""
        self.attempted += 1
        self.busy_seconds += seconds
        self.peak_rss_kb = max(self.peak_rss_kb, rss_kb)
        problems = list(problems)
        if exit_code == 0 and report_bytes:
            digest = hashlib.sha256(report_bytes).hexdigest()
            if self.digests.setdefault(key, digest) != digest:
                problems.append("repeat of this input gave different JSON bytes")
        if problems:
            self.failed += 1
            # a documented nonzero exit, with no other problem such as a
            # traceback, is a failure but not a wrong answer
            documented = exit_code in DOCUMENTED_FAILURES and len(problems) == 1
            if not documented:
                self.incorrect += 1
            if len(self.first_problems) < 5:
                self.first_problems.append(f"{key}: {'; '.join(problems)}")
            return False
        self.ok_seconds.append(seconds)
        return True

    @property
    def correct(self) -> bool:
        return self.incorrect == 0

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def p(self, q: int) -> float | None:
        """q-th percentile of successful op times, or None without ten samples above it."""
        xs = sorted(self.ok_seconds)
        if not xs:
            return None
        if q == 50:
            return statistics.median(xs)
        if len(xs) < 11:
            return None
        cut = statistics.quantiles(xs, n=100, method="inclusive")[q - 1]
        return cut if sum(x > cut for x in xs) >= 10 else None
