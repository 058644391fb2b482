"""End-to-end acceptance checks.

Each test enforces one shipping criterion at its stated tolerance and
prints one PASS/FAIL line (visible under `pytest -s`).  Criteria:

1. degree-11 counterexample reproduced (values, verdict, runtime)
2. full degree sweep 2..20 matches the reference table; violations
   exactly for degrees 11..20; under two minutes
3. on 200 random curves the two closed forms agree to 1e-10 relative
   and the Richardson-extrapolated finite difference to 5e-6 absolute,
   at 20 parameters each
4. the elevation bound is sound and non-increasing in the step count
5. squared-weight coefficients reproduce w(t)^2 to 1e-13 relative
6. the degree-11 member matches its explicit rational-function fixture
7. elevation through the Bernstein product equals the closed-form
   product coefficients
8. endpoint derivative identities hold to 1e-12 relative
"""

import time
from contextlib import contextmanager

import numpy as np

from ratbez import (
    bound_profile,
    build_derivative_form,
    conjecture_bound,
    counterexample_family,
    eval_derivative_explicit,
    eval_derivative_explicit_many,
    eval_point,
    run_table1,
    table1_row,
)
from ratbez._kernels import decasteljau_grid
from ratbez.derivative import _product

from oracles import (
    EXPECTED_TABLE,
    basis_value,
    decasteljau,
    elevation_product_coeffs,
    eval_derivative_sederberg,
    eval_weight,
    finite_difference,
    fixture11_derivative,
    fixture11_point,
    sederberg_terms,
)


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS")


def test_criterion_1_degree_11_counterexample():
    with criterion("1 degree-11 counterexample"):
        start = time.perf_counter()
        row = table1_row(11, e=1000)
        elapsed = time.perf_counter() - start
        assert abs(row.max_first_derivative - 22.152423) <= 1e-4
        assert abs(row.argmax_t - 0.888645) <= 1e-4
        assert abs(row.conjectured_bound - 22.0) <= 1e-12
        assert row.verdict == "violated"
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_2_full_degree_sweep():
    with criterion("2 full degree sweep 2..20"):
        start = time.perf_counter()
        rows = run_table1(2, 20, e=1000)
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"took {elapsed:.2f}s"
        assert [r.degree for r in rows] == list(range(2, 21))
        for row in rows:
            peak, argmax_t, conj, elev = EXPECTED_TABLE[row.degree]
            assert abs(row.max_first_derivative - peak) <= 1e-4, row
            assert abs(row.argmax_t - argmax_t) <= 1e-4, row
            assert abs(row.conjectured_bound - conj) <= 1e-9, row
            assert abs(row.elevation_bound - elev) <= 1e-4, row
        violated = [r.degree for r in rows if r.verdict == "violated"]
        assert violated == list(range(11, 21))


def extrapolated_difference(curve, t, h):
    """Richardson-extrapolated `finite_difference` estimate of r'(t).

    `finite_difference` is second order, with error c*h^2 + O(h^3), so
    (4*fd(s) - fd(2s)) / 3 cancels the h^2 term: fourth order on the
    central stencil (odd powers vanish), third order on the one-sided
    ones.  That needs both calls on the same stencil, so the pair is
    (h/2, h) where a step of h stays inside [0, 1] (both central) and
    (h, 2h) where it does not (both one-sided).
    """
    small = h if t - h < 0.0 or t + h > 1.0 else h / 2.0
    fine = finite_difference(curve, t, h=small)
    coarse = finite_difference(curve, t, h=2.0 * small)
    return (4.0 * fine - coarse) / 3.0


def test_extrapolated_difference_order():
    # The oracle of criterion 3 itself: halving h (at a fixed t / h) must
    # shrink its error about 16x on the central stencil and 8x on the
    # one-sided ones.  Mixing the two stencils would leave an h^2 term
    # and only a 4x gain.
    curve = counterexample_family(6)
    form = build_derivative_form(curve)

    def error(t, h):
        exact = eval_derivative_explicit(form, t)
        return float(np.abs(extrapolated_difference(curve, t, h) - exact).max())

    h = 1e-2
    for t in (0.3, 0.5):
        assert error(t, h) / error(t, h / 2) >= 12.0, t
    for frac in (0.0, 0.7):
        assert error(frac * h, h) / error(frac * h / 2, h / 2) >= 6.0, frac
        assert error(1 - frac * h, h) / error(1 - frac * h / 2, h / 2) >= 6.0, frac


def test_criterion_3_random_corpus_agreement(corpus):
    # NOTE: the finite-difference oracle is Richardson-extrapolated.  A
    # plain central difference at h = 1e-6 carries truncation error
    # h^2 |r'''| / 6, and on this corpus (weights spanning [2^-10, 2^4])
    # |r'''| reaches about 1e9, so it misses 5e-6 by up to 2.8e-4 however
    # exact the closed form is.  Extrapolating from h and h/2 cancels the
    # h^2 term; the worst remaining error on this corpus is 9.1e-8.
    with criterion("3 closed forms and finite differences on 200 random curves"):
        assert len(corpus) == 200
        worst_rel = 0.0
        fd_violations = 0
        worst_fd = 0.0
        for curve, ts in corpus:
            terms = sederberg_terms(curve)
            form = build_derivative_form(curve)
            for t in ts:
                t = float(t)
                compact = decasteljau(terms, t)
                w = eval_weight(curve, t)
                compact = compact / (w * w)
                explicit = eval_derivative_explicit(form, t)
                diff = float(np.sqrt(((compact - explicit) ** 2).sum()))
                scale = 1.0 + float(np.sqrt((explicit * explicit).sum()))
                worst_rel = max(worst_rel, diff / scale)
                fd = extrapolated_difference(curve, t, h=1e-6)
                fd_err = float(np.abs(fd - explicit).max())
                worst_fd = max(worst_fd, fd_err)
                if fd_err > 5e-6:
                    fd_violations += 1
        assert worst_rel <= 1e-10, (
            f"closed-form clause: worst relative disagreement {worst_rel:.3e}"
        )
        assert worst_fd <= 5e-6, (
            f"finite-difference clause: {fd_violations} of 4000 samples differ "
            f"from the extrapolated difference (h=1e-6) by more than 5e-6 "
            f"absolute (worst {worst_fd:.3e}); closed-form clause passed "
            f"(worst relative {worst_rel:.3e})."
        )


def test_criterion_4_elevation_bound_sound_and_monotone(corpus, family_curves):
    with criterion("4 elevation bound soundness and monotonicity"):
        ts = np.linspace(0.0, 1.0, 10_001)
        curves = list(family_curves) + [curve for curve, _ in corpus]
        for curve in curves:
            form = build_derivative_form(curve)
            deriv = eval_derivative_explicit_many(form, ts)
            observed = float(np.sqrt((deriv * deriv).sum(axis=1)).max())
            profile = bound_profile(form, [0, 1, 10, 100, 1000])
            values = [v for _, v in profile]
            for v in values:
                assert v >= observed - 1e-9
            for a, b in zip(values, values[1:]):
                assert b <= a + 1e-12


def test_criterion_5_squared_weight_identity(corpus):
    with criterion("5 squared-weight coefficient identity"):
        for curve, ts in corpus[:50]:
            wcoeffs = _product(curve.weights[:, None], curve.weights)[:, 0]
            for t in ts:
                t = float(t)
                w = eval_weight(curve, t)
                lhs = basis_value(wcoeffs, t)
                assert abs(lhs - w * w) <= 1e-13 * abs(w * w)


def test_criterion_6_degree_11_fixture():
    with criterion("6 degree-11 rational-function fixture"):
        curve = counterexample_family(11)
        form = build_derivative_form(curve)
        for t in (0.1, 0.3, 0.5, 0.7, 0.9):
            point = eval_point(curve, t)
            ref_x = fixture11_point(t)
            assert abs(point[0] - ref_x) <= 1e-10 * abs(ref_x)
            assert abs(point[1]) <= 1e-12
            ref_dx = fixture11_derivative(t)
            for value in (
                eval_derivative_sederberg(curve, t),
                eval_derivative_explicit(form, t),
            ):
                assert abs(value[0] - ref_dx) <= 1e-10 * abs(ref_dx)
                assert abs(value[1]) <= 1e-12


def test_criterion_7_elevation_closed_form():
    with criterion("7 elevation equals product form"):
        form = build_derivative_form(counterexample_family(2))
        stacked = form.rows
        for e in range(9):
            got = _product(stacked, np.ones(e + 1))
            ref = elevation_product_coeffs(stacked, e)
            scale = 1.0 + np.abs(ref).max()
            assert np.abs(got - ref).max() <= 1e-13 * scale


def test_criterion_8_endpoint_identities(corpus):
    with criterion("8 endpoint derivative identities"):
        for curve, _ in corpus:
            n = curve.degree
            p, w = curve.points, curve.weights
            start = n * (w[1] / w[0]) * (p[1] - p[0])
            end = n * (w[n - 1] / w[n]) * (p[n] - p[n - 1])
            form = build_derivative_form(curve)
            checks = [
                (eval_derivative_sederberg(curve, 0.0), start),
                (eval_derivative_explicit(form, 0.0), start),
                (eval_derivative_sederberg(curve, 1.0), end),
                (eval_derivative_explicit(form, 1.0), end),
            ]
            for value, ref in checks:
                scale = 1.0 + float(np.sqrt((ref * ref).sum()))
                assert float(np.sqrt(((value - ref) ** 2).sum())) <= 1e-12 * scale
