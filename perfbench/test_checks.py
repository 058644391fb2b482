"""Each check passes on the program's real output and fails on a perturbed one.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import ratbez
import checks
import workloads


@pytest.fixture(scope="module")
def row11():
    return ratbez.table1_row(11, e=1000)


@pytest.fixture(scope="module")
def table1():
    return workloads.Table1(seed=7)


def item_for(wl, n):
    return next(item for item in wl.rounds[0] if item.extra["n"] == n)


def test_own_derivative_agrees_with_explicit_form_on_degree_11():
    points, weights = workloads.family(11)
    form = ratbez.build_derivative_form(ratbez.counterexample_family(11))
    ts = np.linspace(0.0, 1.0, 257)
    ours = checks.derivative(points, weights, ts)
    theirs = np.array([ratbez.eval_derivative_explicit(form, t) for t in ts])
    assert np.abs(ours - theirs).max() <= 1e-13 * np.abs(theirs).max()


def test_family_row_passes_every_check(table1, row11):
    assert table1.check(item_for(table1, 11), row11) == []


def test_peak_scaled_by_one_part_in_a_million_fails(table1, row11):
    bad = dataclasses.replace(row11, max_first_derivative=row11.max_first_derivative * (1 + 1e-6))
    assert any("is not |r'(argmax" in e for e in table1.check(item_for(table1, 11), bad))
    low = dataclasses.replace(row11, max_first_derivative=row11.max_first_derivative * (1 - 1e-6))
    assert any("is not |r'(argmax" in e for e in table1.check(item_for(table1, 11), low))


def test_argmax_moved_off_the_peak_fails(table1, row11):
    bad = dataclasses.replace(row11, argmax_t=row11.argmax_t - 1e-3)
    assert table1.check(item_for(table1, 11), bad) != []


def test_elevation_bound_below_a_sampled_norm_fails(table1, row11):
    item = item_for(table1, 11)
    below = table1.reference(item).sample_max * (1 - 1e-6)
    bad = dataclasses.replace(row11, elevation_bound=below)
    assert any("elevation bound" in e for e in table1.check(item, bad))


def test_flipped_verdict_fails(table1, row11):
    bad = dataclasses.replace(row11, verdict="holds")
    errors = table1.check(item_for(table1, 11), bad)
    assert any("paper's finding" in e for e in errors)
    assert any("own peak" in e for e in errors)


def test_wrong_conjecture_bound_fails(table1, row11):
    bad = dataclasses.replace(row11, conjectured_bound=22.0 * (1 + 1e-9))
    assert len(table1.check(item_for(table1, 11), bad)) >= 2


def test_rising_profile_fails():
    form = ratbez.build_derivative_form(ratbez.counterexample_family(5))
    profile = ratbez.bound_profile(form, [10, 20, 40])
    assert checks.check_profile(profile) == []
    assert checks.check_profile(list(reversed(profile))) != []


def test_form_endpoint_check():
    points, weights = workloads.family(9)
    ref = checks.Reference(points, weights, np.random.default_rng(0))
    form = ratbez.build_derivative_form(ratbez.counterexample_family(9))
    assert checks.check_form_endpoints(ref, form.control_points) == []
    moved = np.array(form.control_points)
    moved[-1] *= 1 + 1e-6
    assert checks.check_form_endpoints(ref, moved) != []


@pytest.fixture(scope="module")
def cli_round(tmp_path_factory):
    wl = workloads.Cli(seed=3, workdir=str(tmp_path_factory.mktemp("cli")), in_process=True)
    return wl, [(item, wl.op(item)) for item in wl.rounds[0]]


def test_cli_round_passes_every_check(cli_round):
    wl, outputs = cli_round
    for item, out in outputs:
        assert wl.check(item, out) == [], item.extra["argv"]


def test_nonzero_exit_fails(cli_round):
    wl, outputs = cli_round
    item, (code, stdout, stderr, svg) = outputs[0]
    assert any("exit code 2" in e for e in wl.check(item, (2, stdout, "error: bad", svg)))


def test_truncated_svg_fails(cli_round):
    _, outputs = cli_round
    _, (_, _, _, svg) = outputs[-1]
    with open(svg, encoding="utf-8") as fh:
        text = fh.read()
    assert checks.check_svg(text) == []
    assert checks.check_svg(text[: len(text) // 2]) != []


def test_printed_values_off_by_more_than_their_precision_fail(cli_round):
    wl, outputs = cli_round
    by_command = {item.extra["argv"][0] + str(len(item.extra["argv"])): (item, out)
                  for item, out in outputs}
    item, (code, stdout, stderr, svg) = by_command["maximize2"]
    peak, at = stdout.split(" @ t=")
    bumped = f"{float(peak) * (1 + 1e-6) + 1e-5:.6f} @ t={at}"
    assert wl.check(item, (code, bumped, stderr, svg)) != []
    item, (code, stdout, stderr, svg) = by_command["eval3"]
    values = [float(v) * (1 + 1e-9) + 1e-9 for v in stdout.split()]
    assert wl.check(item, (code, " ".join(f"{v:.12g}" for v in values), stderr, svg)) != []
    item, (code, stdout, stderr, svg) = by_command["bound6"]
    value = float(stdout.split()[2])
    below = wl.reference(item).sample_max * (1 - 1e-5)
    lowered = stdout.replace(f"{value:.6f}", f"{below:.6f}")
    assert wl.check(item, (code, lowered, stderr, svg)) != []


def test_median_estimate():
    from median import median
    assert median([4.0]) == 4.0
    assert abs(median([7.0] * 9) - 7.0) < 1e-12
    assert abs(median([3.0, 1.0, 2.0]) - 2.0) < 1e-12
    assert abs(median([1.0, 2.0, 10.0, 11.0]) - 6.0) < 1e-12
    skewed = [1.0] * 9 + [100.0]
    assert 1.0 < median(skewed) < 2.0
