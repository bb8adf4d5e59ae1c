import random
from fractions import Fraction
from math import lcm

import pytest

from divconv import eta, modforms
from divconv.arith import divisors, insert_row, reduce_row, sigma
from divconv.convolution import derive_formula, target_series
from divconv.eta import EtaQuotient, expand_eta_quotient
from divconv.modforms import (
    E4,
    Basis,
    Unsolvable,
    build_basis,
    cusp_count,
    cusp_quotients_for_level,
    dim_M4,
    eisenstein_L,
    express_in_basis,
    registered_cusp_quotients,
    sturm_bound,
)
from divconv.qseries import QSeries
from reference import reference_rank

TRUNC = 80


@pytest.fixture(scope="module")
def basis14():
    return build_basis(14, registered_cusp_quotients(14))


@pytest.fixture(scope="module")
def basis26():
    return build_basis(26, registered_cusp_quotients(26))


def test_eisenstein_L_coefficients():
    l = eisenstein_L(10)
    assert l[0] == 1
    assert l[1] == -24
    assert l[2] == -72


def test_E4_coefficients():
    for t in (1, 2, 13, 26):
        series = E4(t).expand(200)
        assert len(series) == 201
        assert series == [1] + [240 * sigma(3, n // t) if n % t == 0 else 0 for n in range(1, 201)], t


def test_glaisher_identity():
    t = 150
    l = eisenstein_L(t)
    square = QSeries(l) * QSeries(l)
    assert square.coeffs[0] == 1
    for n in range(1, t + 1):
        assert square.coeffs[n] == 240 * sigma(3, n) - 288 * n * sigma(1, n)


@pytest.mark.parametrize(
    "n,e4,s4",
    [(14, 4, 4), (22, 4, 7), (26, 4, 9), (1, 1, 0), (2, 2, 0), (5, 2, 1)],
)
def test_dimension_anchors(n, e4, s4):
    assert cusp_count(n) == e4
    assert dim_M4(n) - cusp_count(n) == s4
    assert dim_M4(n) == e4 + s4


def test_dimension_consistency_small_levels():
    for n in range(1, 40):
        assert dim_M4(n) - cusp_count(n) >= 0


def test_eisenstein_block_is_independent():
    block = [E4(t).expand(14) for t in divisors(14)]
    assert reference_rank(block, 14) == 4


def test_build_basis_sizes(basis14, basis26):
    assert len(basis14.elements) == 8
    assert len(basis26.elements) == 13
    assert [e.element_id for e in basis14.elements if e.kind == "eisenstein"] == ["E1", "E2", "E7", "E14"]
    assert [e.element_id for e in basis14.elements if e.kind == "cusp"] == [
        "S14.1",
        "S14.2",
        "S14.3",
        "S14.4",
    ]


def test_every_level_keeps_its_E4_block():
    for level in range(1, 201):
        elements = build_basis(level, []).elements
        assert [e.generator for e in elements] == [E4(t) for t in divisors(level)], level
        assert [e.element_id for e in elements] == [f"E{t}" for t in divisors(level)], level


def test_build_basis_element_invariants(basis26):
    for element in (e for e in basis26.elements if e.kind == "eisenstein"):
        assert element.series[0] == 1
    for element in (e for e in basis26.elements if e.kind == "cusp"):
        assert element.series[0] == 0
        lead = next(n for n, c in enumerate(element.series) if c)
        assert element.series[lead] == 1


def test_build_basis_rejects_duplicates(basis14):
    family = registered_cusp_quotients(14)
    padded = [family[0], family[0]] + family[1:] + [family[1]]
    basis = build_basis(14, padded)
    assert [e.generator for e in basis.elements if e.kind == "cusp"] == family
    assert [e.element_id for e in basis.elements] == [e.element_id for e in basis14.elements]
    short = build_basis(14, [family[0], family[0], family[2], family[3]])
    assert [e.generator for e in short.elements if e.kind == "cusp"] == [family[0], family[2], family[3]]


def test_build_basis_keeps_candidates_greedily_in_given_order():
    """build_basis keeps candidates greedily in the order given: the first
    copy of each quotient is kept, and a reordered list is kept reordered."""
    family = registered_cusp_quotients(14)
    padded = [family[0], family[0]] + family[1:]
    assert [e.generator for e in build_basis(14, padded).elements if e.kind == "cusp"] == family
    reordered = family[::-1] + family
    assert [e.generator for e in build_basis(14, reordered).elements if e.kind == "cusp"] == family[::-1]


@pytest.mark.parametrize(
    "level,exponents,message",
    [
        (14, {1: 5, 2: -1, 7: 5, 14: -1}, "level 14 != 6"),
        (6, {1: 24}, "is not a weight-4 modular form"),
        (6, {1: 8}, "is not a weight-4 modular form"),  # weight 4, but sum d r_d = 8 fails condition (i)
        # eta(z)^16 / eta(2z)^8 is a weight-4 form on Gamma_0(2) with constant term 1
        (6, {1: 16, 2: -8}, "has nonzero constant term"),
    ],
    ids=["other-level", "weight-12", "weight-4-not-modular", "constant-term"],
)
def test_build_basis_refuses_a_quotient_that_cannot_be_a_cusp_candidate(level, exponents, message):
    with pytest.raises(ValueError, match=message):
        build_basis(6, [EtaQuotient.from_dict(level, exponents)])


def test_build_basis_short_list_stays_below_dim_M4():
    basis = build_basis(14, registered_cusp_quotients(14)[:3])
    assert len(basis.elements) == 7 < dim_M4(14)
    assert reference_rank([e.series for e in basis.elements], sturm_bound(14)) == 7


def test_express_basis_element_is_unit_vector(basis14):
    target = basis14.elements[1].series  # the Eisenstein element at t = 2
    x = express_in_basis(target, basis14)
    assert x[1] == 1 and all(c == 0 for i, c in enumerate(x) if i != 1)


def integral(x):
    """x times the lcm of its denominators, so that its combination of the
    integer basis elements is an integer series."""
    den = lcm(*(c.denominator for c in x))
    return [den * c for c in x]


def combination(x, basis):
    """sum x_i * element_i, on the q^0..q^B the elements are expanded to;
    x must be integral, since express_in_basis takes integer targets."""
    columns = zip(*(e.series for e in basis.elements))
    values = [sum(c * a for c, a in zip(x, column)) for column in columns]
    assert all(v.denominator == 1 for v in values)
    return [int(v) for v in values]


def test_express_zero_series(basis14):
    x = express_in_basis([0] * (TRUNC + 1), basis14)
    assert all(c == 0 for c in x)


def test_express_refuses_target_below_sturm_bound(basis14):
    short = basis14.elements[0].series[:8]  # E4 itself, one coefficient short of q^0..q^8
    with pytest.raises(ValueError, match=r"^target truncation 7 is below the level-14 Sturm bound 8$"):
        express_in_basis(short, basis14)


def test_express_round_trip_random_vectors(basis14, basis26):
    rng = random.Random(7)
    for basis in (basis14, basis26):
        for _ in range(3):
            x = integral([
                Fraction(rng.randint(-30, 30), rng.randint(1, 12))
                for _ in basis.elements
            ])
            target = combination(x, basis)
            assert express_in_basis(target, basis) == x


def test_express_rejects_series_outside_span(basis14):
    outside = [0, 1] + [0] * (TRUNC - 1)  # bare q is no weight-4 form
    with pytest.raises(Unsolvable, match=r"not in the span of the basis: it leaves -18 at q\^8$"):
        express_in_basis(outside, basis14)


def test_sturm_bounds_of_registered_levels():
    assert [sturm_bound(n) for n in (14, 22, 26)] == [8, 12, 14]


def test_build_basis_keeps_reference_greedy_prefix():
    level, truncation = 22, sturm_bound(22)
    family = registered_cusp_quotients(level)
    padded = [family[0], family[0], family[1], family[0], family[2], family[1]]
    padded += [q for q in family[3:] for _ in range(2)] + family[:3]
    expected, series = [], [E4(t).expand(truncation) for t in divisors(level)]
    for quotient in padded:
        s = expand_eta_quotient(quotient, truncation).coeffs
        if reference_rank(series + [s], truncation) == len(series) + 1 and len(series) < dim_M4(level):
            expected.append(quotient)
            series.append(s)
    assert expected == family
    assert [e.generator for e in build_basis(level, padded).elements if e.kind == "cusp"] == expected


def test_express_rejects_singular_system(monkeypatch):
    """A repeated E4(q^t) row is the only way a dependent element could
    reach a Basis, so the singular system is refused where the basis is
    built: build_basis raises before express_in_basis is reached."""
    monkeypatch.setattr(modforms, "dim_M4", lambda n, dim=dim_M4(14): dim)
    monkeypatch.setattr(modforms, "divisors", lambda n: [1, 2, 2, 7, 14])
    with pytest.raises(Unsolvable, match=r"^basis element E2 is dependent on the elements before it on q\^0\.\.q\^8$"):
        build_basis(14, registered_cusp_quotients(14))


def reference_express(target: list[int], basis: Basis) -> list[Fraction]:
    """The solve before the basis kept its echelon: a fresh echelon of the
    elements' q^0..q^B rows, element i's tagged with e_i, then the target
    reduced against it."""
    bound = sturm_bound(basis.level)
    size = len(basis.elements)
    echelon: list[tuple[list[int], int]] = []
    for i, element in enumerate(basis.elements):
        tag = [int(i == j) for j in range(size)]
        assert insert_row(echelon, element.series[: bound + 1] + tag, bound + 1)
    coeffs = [Fraction(c) for c in target[: bound + 1]]
    den = lcm(*(c.denominator for c in coeffs))
    rest, m = reduce_row(echelon, [int(c * den) for c in coeffs] + [0] * size)
    n = next((n for n in range(bound + 1) if rest[n]), None)
    if n is not None:
        raise Unsolvable(f"target is not in the span of the basis: it leaves {Fraction(rest[n], m * den)} at q^{n}")
    return [Fraction(-c, m * den) for c in rest[bound + 1 :]]


def _solve(solver, target: list[int], basis: Basis):
    try:
        return solver(target, basis)
    except Unsolvable as exc:
        return str(exc)


def _agree(target: list[int], basis: Basis):
    expected = _solve(reference_express, target, basis)
    assert _solve(express_in_basis, target, basis) == expected
    return expected


@pytest.mark.parametrize("alpha,beta", [(2, 7), (1, 22), (2, 11), (1, 26), (2, 13)])
def test_express_matches_reference_on_paper_targets(paper_bases, alpha, beta):
    basis = paper_bases[alpha * beta]
    x = _agree(target_series(alpha, beta, sturm_bound(basis.level)), basis)
    assert len(x) == len(basis.elements) == dim_M4(basis.level)


def test_express_matches_reference_on_rebuilt_bases():
    """Padded, reordered and short level-14 bases, and the search bases at
    levels 10, 12 and 20, on random rational combinations of their elements."""
    family = registered_cusp_quotients(14)
    level14 = ([family[0], family[0]] + family[1:] + [family[1]], family[::-1] + family, [family[0], family[0], family[2]])
    bases = [build_basis(14, quotients) for quotients in level14]
    bases += [build_basis(level, cusp_quotients_for_level(level)) for level in (10, 12, 20)]
    rng = random.Random(11)
    for basis in bases:
        bound = sturm_bound(basis.level)
        for _ in range(4):
            x = integral([Fraction(rng.randint(-40, 40), rng.randint(1, 9)) for _ in basis.elements])
            assert _agree(combination(x, basis), basis) == x
        # bare q: outside the span unless the rows span all of q^0..q^B
        refused = _agree([0, 1] + [0] * (bound - 1), basis)
        assert isinstance(refused, str) == (len(basis.elements) <= bound)


def test_express_matches_reference_on_short_basis_refusal():
    family = registered_cusp_quotients(14)
    basis = build_basis(14, [family[0], family[2]])
    assert len(basis.elements) == 6 < dim_M4(14)
    message = _agree(target_series(2, 7, sturm_bound(14)), basis)
    assert message.startswith("target is not in the span of the basis: it leaves ")


@pytest.fixture(autouse=True)
def fresh_level_bases():
    """derive_formula reuses the level's basis for the life of the process,
    so a test that counts the work of building one starts without it."""
    modforms.level_basis.cache_clear()


def test_each_basis_row_is_eliminated_once(monkeypatch):
    calls = []

    def counting_insert_row(*args):
        calls.append(1)
        return insert_row(*args)

    monkeypatch.setattr(modforms, "insert_row", counting_insert_row)
    for (alpha, beta), other, expected in (((2, 7), (1, 14), 8), ((1, 26), (2, 13), 13)):
        calls.clear()
        basis = build_basis(alpha * beta, registered_cusp_quotients(alpha * beta))
        assert len(calls) == expected
        express_in_basis(target_series(alpha, beta, sturm_bound(alpha * beta)), basis)
        assert len(calls) == expected
        calls.clear()
        derive_formula(alpha, beta)
        assert len(calls) == expected
        # the other pair at the level reuses the basis derive_formula built
        derive_formula(*other)
        assert len(calls) == expected


@pytest.mark.parametrize(
    "alpha,beta,walked,pulled", [(3, 4, 3, 3), (4, 5, 12, 6), (3, 5, 9, 4), (1, 36, 29, 29), (1, 60, 61, 30)]
)
def test_derive_walks_once_and_only_as_far_as_it_pulls(monkeypatch, alpha, beta, walked, pulled):
    # walked: survivors the cusp-order walk decides; pulled: candidates
    # build_basis decides. A walk listed in full decides thousands at level 36.
    walks, checked = [], []
    walk, check = modforms.walk_eta_quotients, eta.modular_weight

    def recording_walk(*args):
        walks.append(args)
        return walk(*args)

    monkeypatch.setattr(modforms, "walk_eta_quotients", recording_walk)
    for module in (eta, modforms):
        monkeypatch.setattr(module, "modular_weight", lambda q, module=module: checked.append(module) or check(q))
    derive_formula(alpha, beta)
    assert walks == [(alpha * beta, modforms.SEARCH_CAP)]
    assert (checked.count(eta), checked.count(modforms)) == (walked, pulled)


def test_searched_candidates_are_distinct():
    candidates = list(cusp_quotients_for_level(20))
    assert len(set(candidates)) == len(candidates)
    assert set(candidates) == set(eta.search_eta_quotients(20, modforms.SEARCH_CAP))


def _failing_after(quotients):
    yield from quotients
    raise AssertionError("build_basis pulled a candidate after the basis was full")


def test_build_basis_pulls_no_candidate_once_full():
    basis = build_basis(14, _failing_after(registered_cusp_quotients(14)))
    assert len(basis.elements) == dim_M4(14)
    # at level 4 the E4(q^t) block alone fills dim M4 = 3
    assert len(build_basis(4, _failing_after([])).elements) == dim_M4(4) == 3
