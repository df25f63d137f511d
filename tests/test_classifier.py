import json

import pytest

from beatty_games.classifier import (
    MAX_FAMILY_BOUND,
    ClassificationResult,
    FamilyLabel,
    classification_from_json,
    classification_to_json,
    classify_alpha,
    delta2_range,
    enumerate_families,
    families_to_csv,
    family_ii_alpha,
    family_iii_alpha,
    golden_alpha,
    inverse_solve,
)
from beatty_games.games import BeattyDelta, Family
from beatty_games.quadfield import QuadraticNumber, conjugate_beatty
from beatty_games.solver import (
    TableSource,
    PTable,
    compare_tables,
    solve_doublemex,
)
from beatty_games.quadfield import beatty_floor

PHI = QuadraticNumber(1, 1, 2, 5)
A55 = QuadraticNumber(5, 1, 5, 5)
A19 = QuadraticNumber(-3, 1, 1, 19)

# hand-picked incompatible slopes beyond A55 (floor(beta) = 2 non-golden, or
# floor(beta) = 3 with both excludes unsolvable)
INCOMPATIBLE = [
    A55,
    QuadraticNumber.sqrt(3),
    QuadraticNumber(1, 1, 2, 7),
    QuadraticNumber(7, 1, 5, 5),
    QuadraticNumber(3, 1, 3, 3),
]


def beatty_table(alpha, count):
    beta = conjugate_beatty(alpha).beta
    pairs = tuple((beatty_floor(alpha, n), beatty_floor(beta, n)) for n in range(count))
    return PTable(pairs, TableSource.ORACLE)


class TestDelta2Range:
    def test_phi(self):
        assert delta2_range(PHI) == frozenset({1})

    def test_sqrt19(self):
        assert delta2_range(A19) == frozenset({2, 3})

    def test_a55(self):
        assert delta2_range(A55) == frozenset({1, 2, 3})

    def test_range_matches_sampled_values(self):
        from beatty_games.quadfield import delta2

        for alpha in (PHI, A19, A55, QuadraticNumber.sqrt(3)):
            sampled = {delta2(alpha, n) for n in range(1, 1000)}
            assert sampled == set(delta2_range(alpha))


class TestClassify:
    def test_phi_family_i(self):
        res = classify_alpha(PHI)
        assert res.family is FamilyLabel.I and res.t == 1

    def test_sqrt19_family_ii(self):
        res = classify_alpha(A19)
        assert (res.family, res.p, res.q, res.beta_floor) == (FamilyLabel.II, 3, 1, 3)

    def test_a55_incompatible(self):
        res = classify_alpha(A55)
        assert res.family is FamilyLabel.INCOMPATIBLE
        assert not res.compatible

    def test_golden_family_all_t(self):
        for t in range(1, 11):
            res = classify_alpha(golden_alpha(t))
            assert res.family is FamilyLabel.I and res.t == t

    def test_small_alpha_family_iv(self):
        # non-golden slopes below 5/4 (conjugate floor >= 5)
        for alpha in (
            QuadraticNumber(0, 1, 2, 6),
            QuadraticNumber(6, 1, 6, 2),
            QuadraticNumber(2, 1, 7, 39),
        ):
            assert alpha < QuadraticNumber.rational(5, 4, D=alpha.D)
            res = classify_alpha(alpha)
            assert res.family is FamilyLabel.IV and res.beta_floor >= 5

    def test_incompatible_fixtures(self):
        for alpha in INCOMPATIBLE:
            assert classify_alpha(alpha).family is FamilyLabel.INCOMPATIBLE

    def test_compatibility_iff_inequality(self):
        candidates = [alpha for alpha, _ in enumerate_families(10, 10, 10)] + INCOMPATIBLE
        for alpha in candidates:
            res = classify_alpha(alpha)
            rng = res.delta2_range
            assert res.compatible == (2 * min(rng) - max(rng) >= 1)


class TestGoldenAlpha:
    def test_t1_is_phi(self):
        assert golden_alpha(1) == PHI

    def test_t2_is_sqrt2(self):
        assert golden_alpha(2) == QuadraticNumber.sqrt(2)

    def test_t3(self):
        alpha = golden_alpha(3)
        assert alpha == QuadraticNumber(-1, 1, 2, 13)
        assert alpha.decimal(4) == "1.3027"

    def test_conjugate_offset(self):
        for t in range(1, 12):
            alpha = golden_alpha(t)
            assert conjugate_beatty(alpha).beta - alpha == t

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            golden_alpha(0)


class TestFamilyConstructors:
    def test_ii_sqrt19(self):
        assert family_ii_alpha(3, 1, 3) == A19

    def test_ii_special_case_matches_golden(self):
        assert family_ii_alpha(1, 1, 3) == golden_alpha(2)

    def test_ii_continued_fraction_family(self):
        for k in (2, 3):
            alpha = family_ii_alpha(1, k, k + 1)
            want = QuadraticNumber(k, 1, 2 * k, 4 * k + k * k)
            assert alpha == want

    def test_ii_polynomial_residue(self):
        # q*a^2 + (bp-1-2q)*a + (q - p - (bp-1)) == 0 for accepted roots
        for (p, q, b) in [(3, 1, 3), (1, 2, 3), (2, 3, 4), (1, 3, 4)]:
            alpha = family_ii_alpha(p, q, b)
            if alpha is None:
                continue
            m = b * p - 1
            residue = q * alpha * alpha + (m - 2 * q) * alpha + (q - p - m)
            assert residue == 0

    def test_iii_polynomial_residue(self):
        # q*a^2 + (3p-3q+1)*a + (2q-4p-1) == 0 for accepted roots
        found = 0
        for p in range(1, 7):
            for q in range(1, 7):
                alpha = family_iii_alpha(p, q)
                if alpha is None:
                    continue
                found += 1
                residue = q * alpha * alpha + (3 * p - 3 * q + 1) * alpha + (2 * q - 4 * p - 1)
                assert residue == 0
                assert conjugate_beatty(alpha).beta.floor() == 4
        assert found > 0

    def test_constructor_guards(self):
        # conjugate-floor self-consistency failures
        assert family_ii_alpha(1, 5, 3) is None
        assert family_iii_alpha(1, 5) is None
        # perfect-square discriminants give rational roots
        assert family_ii_alpha(2, 3, 3) is None
        assert family_iii_alpha(1, 4) is None
        with pytest.raises(ValueError):
            family_ii_alpha(1, 1, 5)
        with pytest.raises(ValueError):
            family_iii_alpha(0, 1)

    def test_constructor_outputs_classify_compatible(self):
        for p in range(1, 5):
            for q in range(1, 5):
                for alpha in (
                    family_ii_alpha(p, q, 3),
                    family_ii_alpha(p, q, 4),
                    family_iii_alpha(p, q),
                ):
                    if alpha is not None:
                        assert classify_alpha(alpha).compatible


class TestInverseSolve:
    def test_incompatible_goes_relaxed(self):
        rules, constraint = inverse_solve(A55)
        assert rules.family is Family.RELAXED
        assert isinstance(constraint, BeattyDelta)

    def test_compatible_goes_modified(self):
        rules, constraint = inverse_solve(A19)
        assert rules.family is Family.MODIFIED
        assert compare_tables(solve_doublemex(constraint, 50), beatty_table(A19, 50)) is None

    def test_phi_constraint_is_constant_one(self):
        rules, constraint = inverse_solve(PHI)
        assert rules.family is Family.MODIFIED
        assert all(constraint.value(0, 0, x0) == 1 for x0 in range(1, 100))


class TestEnumeration:
    def test_includes_phi(self):
        entries = enumerate_families(1, 1, 1)
        assert any(alpha == PHI for alpha, _ in entries)

    def test_includes_sqrt19(self):
        entries = enumerate_families(3, 1, 1)
        assert any(alpha == A19 for alpha, _ in entries)

    def test_all_compatible(self):
        for alpha, res in enumerate_families(6, 6, 6):
            assert res.compatible

    def test_deduplicated(self):
        entries = enumerate_families(4, 4, 4)
        alphas = [alpha for alpha, _ in entries]
        assert len(alphas) == len(set(alphas))

    def test_round_trip_reconstruct_golden(self):
        for t in range(1, 7):
            table = beatty_table(golden_alpha(t), 60)
            gaps = [b - a for a, b in table.pairs]
            values = {e - e_prev for e_prev, e in zip(gaps, gaps[1:])}
            assert values == {t}

    def test_family_bound_cap(self):
        assert MAX_FAMILY_BOUND >= 6  # the README example and the benchmark's 3/3/3
        over = MAX_FAMILY_BOUND + 1
        for bounds in ((over, 1, 1), (1, over, 1), (1, 1, over)):
            with pytest.raises(ValueError, match=rf"^bounds must be in \[1, {MAX_FAMILY_BOUND}\]"):
                enumerate_families(*bounds)


class TestSerialization:
    def test_json_round_trip(self):
        for alpha in (PHI, A19, A55, QuadraticNumber(0, 1, 2, 6)):
            res = classify_alpha(alpha)
            assert classification_from_json(classification_to_json(res)) == res

    @pytest.mark.parametrize("text, message", [
        ("{}", "malformed classification: 'family'"),
        ("[1]", "must be a JSON object"),
        ('{"family": "I", "delta2_range": 5}', "malformed classification"),
    ])
    def test_malformed_json_is_a_value_error(self, text, message):
        with pytest.raises(ValueError, match=message):
            classification_from_json(text)

    @pytest.mark.parametrize("field, value", [
        ("t", "x"), ("t", 1.0), ("p", True), ("q", [1]), ("beta_floor", "5"),
        ("delta2_range", "12"), ("delta2_range", [1, 1.5]), ("delta2_range", [False]),
        ("also_matches", "III"),
    ])
    def test_wrong_field_type_is_a_value_error(self, field, value):
        # A float, a string or a boolean (JSON true/false) is not an integer.
        data = {"family": "II", "delta2_range": [1], field: value}
        with pytest.raises(ValueError) as exc:
            classification_from_json(json.dumps(data))
        assert str(exc.value) == f"malformed classification: {field} = {value!r}"

    def test_families_csv(self):
        entries = enumerate_families(3, 2, 2)
        text = families_to_csv(entries)
        lines = text.splitlines()
        assert lines[0].startswith("#")
        header = lines[1].split(",")
        assert header == [
            "family", "t_or_p", "q", "beta_floor",
            "alpha_p", "alpha_q", "alpha_r", "alpha_D", "alpha_decimal_approx",
        ]
        phi_rows = [l for l in lines if l.startswith("I,1,")]
        assert phi_rows and "1.6180339887" in phi_rows[0]
