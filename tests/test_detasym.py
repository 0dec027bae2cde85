"""Tests for the block-determinant asymptotics module."""

import gc
import itertools
import math
import random
from fractions import Fraction

import pytest

import polysum.detasym as detasym
from polysum.detasym import (
    DeltaSpec,
    certify_positivity,
    delta_polynomial,
    delta_value,
    gvd,
    laplace_expand,
    leading_term,
)
from polysum.exact import determinant, int_det

from helpers import build_delta, leibniz_polynomial, random_delta_spec, sigma_closed_form, vandermonde


def hand_spec():
    return DeltaSpec(
        (2, 2), (1, 0), ((Fraction(1), Fraction(2)), (Fraction(3), Fraction(5)))
    )


def test_vandermonde_values():
    assert vandermonde([1, 2, 3]) == 2
    assert vandermonde([1, 2]) == 1


def test_vandermonde_equals_power_matrix():
    rng = random.Random(2)
    for _ in range(20):
        k = rng.randint(2, 5)
        xs = sorted(
            {Fraction(rng.randint(1, 30), rng.randint(1, 4)) for _ in range(k)}
        )
        if len(xs) < 2:
            continue
        rows = [[x**p for x in xs] for p in range(len(xs))]
        assert vandermonde(xs) == determinant(rows)
        assert vandermonde(xs) > 0


def test_gvd_values():
    assert gvd([1, 2, 3], [0, 1, 2]) == 2
    assert gvd([1, 2], [1, 3]) == 6
    with pytest.raises(ValueError):
        gvd([1, 2], [0, 1, 2])
    with pytest.raises(ValueError):
        gvd([1, 2], [2, 1])


def test_gvd_reduces_to_vandermonde():
    rng = random.Random(3)
    for _ in range(15):
        k = rng.randint(2, 5)
        xs = sorted({Fraction(rng.randint(1, 40), 4) for _ in range(k)})
        if len(xs) < 2:
            continue
        assert gvd(xs, list(range(len(xs)))) == vandermonde(xs)


def test_gvd_positive_on_random_increasing_inputs():
    rng = random.Random(4)
    done = 0
    while done < 100:
        k = rng.randint(2, 5)
        xs = sorted({Fraction(rng.randint(1, 60), rng.randint(1, 5)) for _ in range(k)})
        if len(xs) < 2:
            continue
        mu = sorted(rng.sample(range(0, 9), len(xs)))
        assert gvd(xs, mu) > 0
        done += 1


def test_gvd_matches_the_fraction_determinant():
    # abscissas of mixed sign, order and denominator: gvd validates only mu
    rng = random.Random(31)
    for _ in range(100):
        k = rng.randint(1, 5)
        xs = [Fraction(rng.randint(-30, 30), rng.randint(1, 6)) for _ in range(k)]
        mu = sorted(rng.sample(range(0, 9), k))
        assert gvd(xs, mu) == determinant([[v**m for v in xs] for m in mu]), (xs, mu)


def test_laplace_expansion_identities():
    rng = random.Random(5)
    for _ in range(25):
        size = rng.randint(2, 5)
        m = [[rng.randint(-4, 4) for _ in range(size)] for _ in range(size)]
        block = sorted(rng.sample(range(size), rng.randint(1, size)))
        terms = laplace_expand(m, block)
        assert sum(t.value for t in terms) == determinant(m)
    # single-column block degenerates to a cofactor expansion
    m = [[1, 2], [3, 4]]
    terms = laplace_expand(m, [0])
    assert sum(t.value for t in terms) == -2
    assert len(terms) == 2
    # block = all columns: one term equal to the determinant
    terms = laplace_expand(m, [0, 1])
    assert len(terms) == 1 and terms[0].value == -2


def test_build_delta_shape_and_hand_value():
    spec = hand_spec()
    tau = Fraction(1, 3)
    mat = build_delta(spec, tau)
    assert spec.K == 4 and len(mat) == 4 and all(len(row) == 4 for row in mat)
    assert spec.n + spec.n + spec.power_row_count == spec.K
    # hand expansion: Delta(tau) = tau * (x12-x11) * (x22-x21)
    assert delta_value(spec, tau) == tau * (2 - 1) * (5 - 3)


def delta_by_definition(spec, tau):
    """Delta(tau) column by column, straight from the module docstring."""
    n, K = spec.n, spec.K
    columns = []
    for i in range(n):
        for x in spec.x[i]:
            indicator = [1 if r == i else 0 for r in range(n)]
            linear = [x * tau ** spec.beta[i] if r == i else 0 for r in range(n)]
            powers = [x**p * tau ** (p * spec.beta[i]) for p in range(2, K - 2 * n + 2)]
            columns.append(indicator + linear + powers)
    return [[col[r] for col in columns] for r in range(K)]


def wide_delta_spec(rng, K):
    """Spec of size exactly K: 2..5 blocks of 2..6 columns."""
    while True:
        n = rng.randint(2, min(5, K // 2))
        kappa = [2] * n
        for _ in range(K - 2 * n):
            kappa[rng.randrange(n)] += 1
        if max(kappa) <= 6:
            break
    return spec_of_kappa(rng, kappa)


def spec_of_kappa(rng, kappa):
    """Spec with these block sizes: exponents from 0..7, mixed denominators."""
    beta = sorted(rng.sample(range(0, 8), len(kappa)), reverse=True)
    xs = []
    for k in kappa:
        vals = [Fraction(rng.randint(1, 4), rng.randint(1, 3))]
        for _ in range(k - 1):
            vals.append(vals[-1] + Fraction(rng.randint(1, 4), rng.randint(1, 3)))
        xs.append(tuple(vals))
    return DeltaSpec(tuple(kappa), tuple(beta), tuple(xs))


def test_build_delta_matches_the_definition():
    rng = random.Random(13)
    specs = [hand_spec()] + [random_delta_spec(rng) for _ in range(20)]
    specs += [wide_delta_spec(rng, K) for K in range(4, 19) for _ in range(2)]
    assert max(spec.K for spec in specs) == 18
    for spec in specs:
        for tau in (Fraction(1), Fraction(1, 2), Fraction(3, 7), Fraction(5, 2)):
            assert build_delta(spec, tau) == delta_by_definition(spec, tau)


def test_delta_value_matches_the_fraction_oracle():
    rng = random.Random(17)
    specs = [hand_spec()] + [wide_delta_spec(rng, K) for K in range(4, 19) for _ in range(2)]
    taus = [Fraction(1, 2**h) for h in range(13)]
    taus += [Fraction(3, 7), Fraction(5, 3), Fraction(2), Fraction(10**9 + 7, 2**40)]
    for spec in specs:
        sign = (-1) ** spec.sign_exponent
        for tau in taus:
            assert delta_value(spec, tau) == sign * determinant(build_delta(spec, tau)), (spec, tau)
    with pytest.raises(ValueError):
        delta_value(hand_spec(), 0)


def complete_homogeneous(k, values):
    """h_k: the sum of every degree-k monomial in the values."""
    return sum(
        math.prod(v**e for v, e in zip(values, exps))
        for exps in itertools.product(range(k + 1), repeat=len(values))
        if sum(exps) == k
    )


def elimination_specs():
    rng = random.Random(37)
    specs = [hand_spec()] + [wide_delta_spec(rng, K) for K in range(4, 19)]
    specs += [spec_of_kappa(rng, (2,) * n) for n in range(2, 6)]  # K = 2n: M is empty
    specs += [spec_of_kappa(rng, (2,) * i + (3,) + (2,) * (n - 1 - i)) for n in range(2, 5) for i in range(n)]
    return specs


def test_block_elimination_identity():
    # Delta = prod_i [(y1 - y0) prod_{j>=2} (yj - y0)(yj - y1)] det M, with
    # y = x tau^beta_i and M[p-2][(i, j)] = h_(p-2)(y0, y1, yj)
    taus = [Fraction(1), Fraction(1, 2), Fraction(3, 7), Fraction(5, 2), Fraction(1, 2**20)]
    specs = elimination_specs()
    assert {spec.K - 2 * spec.n for spec in specs} >= {0, 1} and max(spec.K for spec in specs) == 18
    for spec in specs:
        for tau in taus:
            ys = [[x * tau**b for x in xs] for xs, b in zip(spec.x, spec.beta)]
            prefactor = math.prod(
                (y[1] - y[0]) * math.prod((yj - y[0]) * (yj - y[1]) for yj in y[2:]) for y in ys
            )
            assert prefactor > 0, (spec, tau)
            m = [
                [complete_homogeneous(k, (y[0], y[1], yj)) for y in ys for yj in y[2:]]
                for k in range(spec.power_row_count)
            ]
            oracle = (-1) ** spec.sign_exponent * determinant(build_delta(spec, tau))
            assert prefactor * determinant(m) == oracle == delta_value(spec, tau), (spec, tau)


def test_evaluator_takes_one_determinant_of_the_power_rows(monkeypatch):
    calls = []

    def counting_int_det(rows):
        calls.append(rows)
        return int_det(rows)

    monkeypatch.setattr(detasym, "int_det", counting_int_det)
    for spec in elimination_specs():
        size = spec.K - 2 * spec.n
        for tau in (Fraction(1), Fraction(3, 7)):
            calls.clear()
            delta_value(spec, tau)
            assert len(calls) == 1, spec
            assert len(calls[0]) == size and all(len(row) == size for row in calls[0]), spec


def test_certify_positivity_evaluates_each_tau_once(monkeypatch):
    calls = []

    def counting_int_det(rows):
        calls.append(rows)
        return int_det(rows)

    monkeypatch.setattr(detasym, "int_det", counting_int_det)
    rng = random.Random(19)
    for spec in [hand_spec()] + [random_delta_spec(rng) for _ in range(6)]:
        calls.clear()
        report = certify_positivity(spec)
        # one GVD per block for the leading term, then one determinant per tau
        # tried: every tau tried is 2^-j, for j = 0..halvings + 1
        assert report.tau0 == Fraction(1, 2**report.halvings)
        assert len(calls) == spec.n + report.halvings + 2


def test_delta_positive_below_threshold():
    rng = random.Random(6)
    for _ in range(10):
        spec = random_delta_spec(rng)
        report = certify_positivity(spec)
        assert delta_value(spec, report.tau0) > 0
        assert delta_value(spec, report.tau0 / 2) > 0


def test_leading_term_hand_case():
    lt = leading_term(hand_spec())
    assert lt.theta == 1
    assert lt.coefficient == (2 - 1) * (5 - 3)
    assert lt.rho == ((1, 3), (2, 4))


def test_leading_term_rho_partitions_rows():
    rng = random.Random(7)
    for _ in range(20):
        spec = random_delta_spec(rng)
        lt = leading_term(spec)
        flat = sorted(i for block in lt.rho for i in block)
        assert flat == list(range(1, spec.K + 1))
        assert lt.coefficient > 0


def test_zero_tail_exponent_contributes_nothing():
    spec = DeltaSpec(
        (2, 2), (3, 0), ((Fraction(1), Fraction(2)), (Fraction(3), Fraction(5)))
    )
    lt = leading_term(spec)
    # the last block scales by tau^0, so theta comes from block 1 alone
    assert lt.theta == 3 * (sum(lt.rho[0]) - sum(lt.alpha_offsets[0]))


def test_brute_force_polynomial_matches_leading_term():
    rng = random.Random(8)
    done = 0
    while done < 12:
        spec = random_delta_spec(rng)
        if spec.K > 8:
            continue
        poly = delta_polynomial(spec)
        lt = leading_term(spec)
        low = min(poly)
        assert low == lt.theta
        assert poly[low] == lt.coefficient
        done += 1


def test_brute_force_polynomial_evaluates_to_delta():
    # the polynomial reads the full K x K table, the evaluator only M
    rng = random.Random(9)
    specs = [hand_spec()] + [wide_delta_spec(rng, K) for K in range(4, 9) for _ in range(3)]
    for spec in specs:
        poly = delta_polynomial(spec)
        sign = (-1) ** spec.sign_exponent
        for tau in (Fraction(1), Fraction(1, 2), Fraction(3, 7), Fraction(5, 2)):
            val = sum(c * tau**e for e, c in poly.items())
            assert val == sign * determinant(build_delta(spec, tau)) == delta_value(spec, tau), (spec, tau)


def test_brute_force_polynomial_matches_the_leibniz_sum():
    rng = random.Random(23)
    specs = [hand_spec()] + [wide_delta_spec(rng, K) for K in range(4, 8) for _ in range(3)]
    for spec in specs:
        assert delta_polynomial(spec) == leibniz_polynomial(spec), spec


def test_brute_force_polynomial_leaves_no_reference_cycles():
    # garbage in cycles only the cyclic GC frees would raise peak memory
    gc.collect()
    gc.disable()
    try:
        delta_polynomial(hand_spec())
    finally:
        gc.enable()
    assert gc.collect() == 0


def test_brute_force_cap():
    spec = DeltaSpec(
        (4, 4, 2),
        (2, 1, 0),
        (
            tuple(Fraction(i) for i in (1, 2, 3, 4)),
            tuple(Fraction(i) for i in (1, 2, 3, 4)),
            (Fraction(1), Fraction(2)),
        ),
    )
    assert spec.K == 10
    with pytest.raises(ValueError):
        delta_polynomial(spec)


def test_build_delta_block_structure():
    # why only one block row assignment survives: indicator row i and linear
    # row n + i live in block i's columns alone, and power rows fill every column
    rng = random.Random(10)
    specs = [random_delta_spec(rng) for _ in range(10)]
    specs += [wide_delta_spec(rng, K) for K in range(4, 19) for _ in range(2)]
    assert max(spec.K for spec in specs) == 18
    for spec in specs:
        n, ps = spec.n, spec.partial_sums()
        for tau in (Fraction(1), Fraction(3, 7)):
            mat = build_delta(spec, tau)
            for i in range(n):
                block = set(range(ps[i], ps[i + 1]))
                for r in (i, n + i):
                    assert {c for c, v in enumerate(mat[r]) if v} == block, (spec, r)
            for r in range(2 * n, spec.K):
                assert all(mat[r]), (spec, r)


def test_degenerate_two_block_spec_certifies_at_one():
    report = certify_positivity(hand_spec())
    assert report.tau0 == 1 and report.halvings == 0
    assert (report.theta, report.coefficient) == (1, 2)
    # Delta(tau) = coeff * tau exactly
    assert report.delta(Fraction(1)) == 2 and report.delta(Fraction(1, 2)) == 1


def test_ratio_deviation_small_at_fixed_probe():
    # test parameters: probe tau = 2^-20, allowed relative deviation 2^-10
    rng = random.Random(424242)
    tau = Fraction(1, 2**20)
    bound = Fraction(1, 2**10)
    for _ in range(50):
        spec = random_delta_spec(rng)
        lt = leading_term(spec)
        dev = abs(delta_value(spec, tau) / (lt.coefficient * tau**lt.theta) - 1)
        assert dev < bound


def test_tau0_is_not_a_proof_of_positivity_below_it():
    # the benchmark's spec018-K7: both halving points are positive, yet
    # Delta changes sign at least twice inside (tau0/2, tau0)
    spec = DeltaSpec(
        (4, 3),
        (3, 0),
        (tuple(map(Fraction, (2, 4, 6, 8))), (Fraction(3, 2), Fraction(3), Fraction(4))),
    )
    report = certify_positivity(spec)
    assert (report.tau0, report.halvings) == (1, 0)
    assert delta_value(spec, Fraction(13, 16)) < 0
    assert delta_value(spec, Fraction(7, 8)) < 0


def test_sigma_closed_form_parity():
    rng = random.Random(12)
    for _ in range(50):
        spec = random_delta_spec(rng)
        assert (sigma_closed_form(spec) + spec.sign_exponent) % 2 == 0


def test_spec_validation():
    with pytest.raises(ValueError):
        DeltaSpec((2,), (0,), ((Fraction(1), Fraction(2)),))
    with pytest.raises(ValueError):
        DeltaSpec((2, 1), (1, 0), ((Fraction(1), Fraction(2)), (Fraction(1),)))
    with pytest.raises(ValueError):
        DeltaSpec(
            (2, 2), (0, 1), ((Fraction(1), Fraction(2)), (Fraction(1), Fraction(2)))
        )
    with pytest.raises(ValueError):
        DeltaSpec(
            (2, 2), (1, 0), ((Fraction(2), Fraction(1)), (Fraction(1), Fraction(2)))
        )
