"""No CLI input ends in a traceback.

`qcreg.cli.main` runs in process on catalog specs with extreme float
parameters and on extreme smallest and largest profile radii. Every run must
return one of the documented exit codes (0 ok, 1 config, 2 invariant, 3
numerical); an exception escaping `main` fails the test, and so does a
numpy RuntimeWarning, which the pytest settings turn into an error.
"""

import contextlib
import io
import json
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcreg.cli import main

#: a small rule keeps each run to a few milliseconds
SMALL = ["--nodes", "16", "--max-doublings", "2", "--radii-count", "3"]

EXTREMES = (0.0, 1.0, 2.0, 1e-310, 5e-324, 2.2250738585072014e-308, 1e-200, 1e154, 1e200,
            1.7976931348623157e308, math.inf, -math.inf, math.nan)
WIDE = st.one_of(
    st.sampled_from(EXTREMES),
    st.sampled_from(EXTREMES).map(lambda x: -x),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)


def _spec_value(x) -> str:
    if isinstance(x, complex):
        return f"{x.real!r}{x.imag:+}j"
    return repr(x)


SPECS = st.one_of(
    st.builds(lambda K: f"radial_stretch(K={_spec_value(K)})", WIDE),
    st.builds(lambda g: f"spiral(gamma={_spec_value(g)})", WIDE),
    st.builds(lambda a, b: f"affine(a={_spec_value(a)},b={_spec_value(b)})",
              st.one_of(WIDE, st.builds(complex, WIDE, WIDE)), WIDE),
    st.builds(lambda a, g: f"power_spiral(alpha={_spec_value(a)},gamma={_spec_value(g)})",
              WIDE, WIDE),
)


def run_cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@settings(max_examples=60, deadline=None, derandomize=True)
@example(spec="affine(a=1e200,b=0)")
@example(spec="affine(a=inf,b=0)")
@given(spec=SPECS)
def test_catalog_specs_with_extreme_parameters(spec):
    assert run_cli(["analyze", "--subject", spec, *SMALL]) in (0, 1, 2, 3)


SUBJECTS = ("radial_stretch(K=2)", "spiral(gamma=1)", "affine(a=1,b=0.3)",
            "power_spiral(alpha=0.5,gamma=1)")


@settings(max_examples=40, deadline=None, derandomize=True)
@example(subject="radial_stretch(K=2)", radii_min=1e-310)
@example(subject="affine(a=1,b=0.3)", radii_min=1e-200)  # the image area underflows
@given(
    subject=st.sampled_from(SUBJECTS),
    radii_min=st.one_of(
        st.sampled_from((1e-310, 5e-324, 2.2250738585072014e-308, 1e-300, 1e-200, 1e-30)),
        st.floats(min_value=0.0, max_value=1.0, allow_subnormal=True),
    ),
)
def test_extreme_smallest_profile_radius(subject, radii_min):
    argv = ["analyze", "--subject", subject, "--radii-min", repr(radii_min), *SMALL]
    assert run_cli(argv) in (0, 1, 2, 3)


@settings(max_examples=40, deadline=None, derandomize=True)
# the profile nudges a circle whose boundary data overflow
@example(subject="affine(a=1,b=0.5)", radii_max=1e200)
@example(subject="spiral(gamma=1)", radii_max=1e200)
@given(subject=st.sampled_from(SUBJECTS), radii_max=st.sampled_from(EXTREMES))
def test_extreme_largest_profile_radius(subject, radii_max):
    argv = ["extremal", "--subject", subject, f"--radii-max={radii_max!r}", *SMALL]
    assert run_cli(argv) in (0, 1, 2, 3)


def test_nudged_radius_is_the_radius_of_every_extremal_block():
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(["extremal", "--subject", "affine(a=1,b=0.5)", "--radii-max", "1e200",
                     *SMALL]) == 0
    payload = json.loads(out.getvalue())
    t = payload["geometry_profile"]["t"]
    assert t[-1] < 1e200  # nudged
    assert payload["epsilon_profile"]["t"] == t == payload["defect_profile"]["t"]
    assert [rec["t"] for rec in payload["holder_estimates"]] == [x for x in t if x < 1]
