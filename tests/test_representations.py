import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import divconv.representations as representations_module

from divconv.representations import (
    SUPPORTED_PAIRS,
    octonary_convolution,
    octonary_count_table,
    octonary_formula_table,
    octonary_lattice,
    r4,
    r4_lattice,
)
from reference import octonary_1_1_closed_form, reference_octonary_count_table, reference_octonary_formula_table
from test_convolution import forbid


@pytest.mark.parametrize("n,expected", [(0, 1), (1, 8), (2, 24), (4, 24), (7, 64)])
def test_r4_values(n, expected):
    assert r4(n) == expected


def test_r4_matches_lattice_count():
    for n in range(0, 81):
        assert r4(n) == r4_lattice(n)


def test_r4_lattice_bound():
    with pytest.raises(ValueError, match="exceeds lattice bound 200"):
        r4_lattice(201)


def test_octonary_convolution_small_values():
    assert octonary_convolution(1, 1, 1) == 16
    assert octonary_convolution(1, 1, 2) == 112
    assert octonary_convolution(1, 3, 0) == 1


def test_octonary_convolution_symmetry():
    for n in range(0, 40):
        assert octonary_convolution(1, 3, n) == octonary_convolution(3, 1, n)
        assert octonary_convolution(2, 3, n) == octonary_convolution(3, 2, n)


def test_octonary_lattice_agrees_with_convolution():
    for a, b in SUPPORTED_PAIRS:
        for n in range(0, 11):
            assert octonary_lattice(a, b, n) == octonary_convolution(a, b, n)


@pytest.mark.parametrize("a,b", SUPPORTED_PAIRS)
def test_count_table_matches_per_n_counts(a, b):
    table = octonary_count_table(a, b, 500)
    assert table == [octonary_convolution(a, b, n) for n in range(501)]
    assert table[:11] == [octonary_lattice(a, b, n) for n in range(11)]


@pytest.mark.parametrize("a,b", SUPPORTED_PAIRS)
def test_formula_table_matches_count_table(a, b):
    # below 4 (and below a and b) the Jacobi list and the W identity's
    # slices of multiples are short or empty
    for n_max in (0, 1, 2, 3, 4, 5, 7, 8, 500):
        table = octonary_formula_table(a, b, n_max)
        assert table == octonary_count_table(a, b, n_max), n_max
        assert table == reference_octonary_formula_table(a, b, n_max), n_max


def test_formula_table_reads_only_sigma_sieve(monkeypatch):
    """The formula column is one series_product of Jacobi's r4 list from
    sigma_sieve: it reads no W table, no oracle sieve and no per-n sigma,
    and its module loads nothing of convolution."""
    expected = {pair: reference_octonary_count_table(*pair, 300) for pair in SUPPORTED_PAIRS}
    forbid(monkeypatch, "brute_force_W_table", "sigma_table", "sigma", "r4", "multiply_pass")
    assert {pair: octonary_formula_table(*pair, 300) for pair in SUPPORTED_PAIRS} == expected
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    code = "import divconv.representations, sys; print(' '.join(sorted(sys.modules)))"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    loaded = {name for name in result.stdout.split() if name.startswith("divconv")}
    assert loaded == {"divconv", "divconv.arith", "divconv.representations"}


def test_formula_table_matches_1_1_closed_form():
    table = octonary_formula_table(1, 1, 500)
    assert table[:3] == [1, 16, 112]
    assert octonary_1_1_closed_form(2) == 16 * 9 - 32
    assert table[1:] == [octonary_1_1_closed_form(n) for n in range(1, 501)]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 400))
@example(5, 5, 400)  # a == b: eight passes of one theta
@example(7, 3, 5)  # a > n_max: the four theta(q^a) passes have no term
@example(12, 9, 8)  # both past n_max: the table is 1 and zeros
@example(1, 1, 0)
def test_count_table_matches_the_dense_theta_products(a, b, n_max):
    assert octonary_count_table(a, b, n_max) == reference_octonary_count_table(a, b, n_max)


def test_count_table_reads_no_sigma_table(monkeypatch):
    # the count column is the lattice count itself: it reads no divisor sum,
    # neither the formula column's sigma_sieve and series_product nor the per-n r4
    expected = [octonary_convolution(2, 3, n) for n in range(1, 61)]
    for name in ("sigma_sieve", "series_product", "sigma", "r4"):

        def forbidden(*args, name=name):
            raise AssertionError(f"octonary_count_table read {name}")

        monkeypatch.setattr(representations_module, name, forbidden)
    assert octonary_count_table(2, 3, 60)[1:] == expected


def test_count_table_theta4_is_jacobis_r4():
    # with b past n_max the second factor is 1, so the table is theta^4 alone,
    # checked against trial-division r4 over the whole range
    n_max = 2000
    assert octonary_count_table(1, n_max + 1, n_max) == [r4(n) for n in range(n_max + 1)]


def test_formula_table_unsupported_pair():
    with pytest.raises(ValueError, match=r"no formula for \(a, b\) = \(1, 5\)"):
        octonary_formula_table(1, 5, 10)
