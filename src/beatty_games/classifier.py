"""Slope classification and the inverse problem.

A complementary Beatty pair with slope alpha in (1, 2) can be the P-positions
of a modified two-pile game exactly when the constraint's achievable values
satisfy 2*min - max >= 1.  The achievable values form a subset of
{floor(beta)-2, floor(beta)-1, floor(beta)}; which endpoints drop out is
decided by two unit-combination equations, and the surviving slopes fall into
four constructible families.  Slopes that fail the inequality still solve the
inverse problem under relaxed Wythoff rules, which every slope satisfies.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Tuple

from .games import SCHEMA, BeattyDelta, Family, RuleSet
from .quadfield import (
    BeattyPair,
    QuadraticNumber,
    conjugate_beatty,
    solve_unit_combination,
)

MAX_FAMILY_BOUND = 100  # largest p_max, q_max, t_max of enumerate_families


class FamilyLabel(Enum):
    I = "I"
    II = "II"
    III = "III"
    IV = "IV"
    INCOMPATIBLE = "incompatible"


@dataclass(frozen=True)
class ClassificationResult:
    family: FamilyLabel
    delta2_range: frozenset
    t: Optional[int] = None
    p: Optional[int] = None
    q: Optional[int] = None
    beta_floor: Optional[int] = None
    also_matches: Tuple[str, ...] = ()

    @property
    def compatible(self) -> bool:
        return self.family is not FamilyLabel.INCOMPATIBLE

    def describe(self) -> str:
        rng = "{" + ", ".join(str(v) for v in sorted(self.delta2_range)) + "}"
        if self.family is FamilyLabel.I:
            head = f"Family I, t={self.t}"
        elif self.family is FamilyLabel.II:
            head = f"Family II, p={self.p}, q={self.q}, beta_floor={self.beta_floor}"
        elif self.family is FamilyLabel.III:
            head = f"Family III, p={self.p}, q={self.q}"
        elif self.family is FamilyLabel.IV:
            head = f"Family IV, beta_floor={self.beta_floor}"
        else:
            head = "Incompatible"
        if self.also_matches:
            head += f" (also matches {', '.join(self.also_matches)})"
        return f"{head}; delta2 range {rng}"


def delta2_range(alpha: QuadraticNumber) -> frozenset:
    """Achievable second-difference values for the pair with slope alpha.

    floor(beta)-1 is always achieved (n = 0 lies in both index sequences);
    floor(beta) drops out iff p*{beta} + q*(1-{alpha}) = 1 has a positive
    integer solution, floor(beta)-2 iff p*(1-{beta}) + q*{alpha} = 1 does.
    """
    return _range_and_solutions(conjugate_beatty(alpha))[0]


def _range_and_solutions(pair: BeattyPair):
    """The delta2 range with both unit-combination solutions (ii, iii).

    ii solves p*(1-{beta}) + q*{alpha} = 1 and drops floor(beta)-2; iii
    solves p*{beta} + q*(1-{alpha}) = 1 and drops floor(beta).
    """
    bf = pair.beta.floor()
    frac_a, frac_b = pair.frac_alpha, pair.frac_beta
    ii = solve_unit_combination(1 - frac_b, frac_a)
    iii = solve_unit_combination(frac_b, 1 - frac_a)
    values = {bf - 1}
    if iii is None:
        values.add(bf)
    if ii is None:
        values.add(bf - 2)
    return frozenset(values), ii, iii


def classify_alpha(alpha: QuadraticNumber) -> ClassificationResult:
    """Assign alpha to one of the four compatible families, or Incompatible.

    Priority I > IV > II > III; overlapping lower-priority matches are
    recorded in also_matches.  The family label agrees with the compatibility
    inequality 2*min - max >= 1 over the delta2 range by construction.
    """
    return _classify(conjugate_beatty(alpha))


def _classify(pair: BeattyPair) -> ClassificationResult:
    bf = pair.beta.floor()
    rng, ii, iii = _range_and_solutions(pair)

    diff = pair.beta - pair.alpha
    if diff.is_integer and diff.p >= 1:
        return ClassificationResult(
            FamilyLabel.I, rng, t=diff.floor(), beta_floor=bf
        )
    if bf >= 5:
        return ClassificationResult(FamilyLabel.IV, rng, beta_floor=bf)

    ii = ii if bf in (3, 4) else None
    iii = iii if bf == 4 else None
    if ii is not None:
        also = ("III",) if iii is not None else ()
        return ClassificationResult(
            FamilyLabel.II, rng, p=ii[0], q=ii[1], beta_floor=bf, also_matches=also
        )
    if iii is not None:
        return ClassificationResult(
            FamilyLabel.III, rng, p=iii[0], q=iii[1], beta_floor=bf
        )
    result = ClassificationResult(FamilyLabel.INCOMPATIBLE, rng, beta_floor=bf)
    assert 2 * min(rng) - max(rng) < 1, "inequality disagrees with family label"
    return result


def golden_alpha(t: int) -> QuadraticNumber:
    """Slope (2 - t + sqrt(t*t + 4)) / 2; its conjugate satisfies beta = alpha + t."""
    if t < 1:
        raise ValueError("t must be >= 1")
    return QuadraticNumber(2 - t, 1, 2, t * t + 4)


def family_ii_alpha(p: int, q: int, beta_floor: int) -> Optional[QuadraticNumber]:
    """Positive root (sqrt(4pq + (bp-1)^2) + 2q - (bp-1)) / (2q) for b in {3, 4}.

    Returned only when irrational, inside (1, 2), and self-consistent: the
    conjugate's floor must equal the beta_floor parameter.
    """
    if p < 1 or q < 1:
        raise ValueError("p and q must be >= 1")
    if beta_floor not in (3, 4):
        raise ValueError("beta_floor must be 3 or 4")
    m = beta_floor * p - 1
    return _family_root(QuadraticNumber(2 * q - m, 1, 2 * q, 4 * p * q + m * m), beta_floor)


def family_iii_alpha(p: int, q: int) -> Optional[QuadraticNumber]:
    """Positive root (sqrt(4pq + (q-3p-1)^2) + 3q - 3p - 1) / (2q), beta floor 4."""
    if p < 1 or q < 1:
        raise ValueError("p and q must be >= 1")
    m = q - 3 * p - 1
    return _family_root(QuadraticNumber(3 * q - 3 * p - 1, 1, 2 * q, 4 * p * q + m * m), 4)


def _family_root(alpha: QuadraticNumber, beta_floor: int) -> Optional[QuadraticNumber]:
    """alpha if it is irrational, inside (1, 2) and its conjugate's floor is beta_floor."""
    if alpha.is_rational or not (1 < alpha < 2):
        return None
    return alpha if conjugate_beatty(alpha).beta.floor() == beta_floor else None


def inverse_solve(alpha: QuadraticNumber) -> Tuple[RuleSet, BeattyDelta]:
    """Ruleset whose P-positions are exactly the Beatty pairs of alpha.

    Compatible slopes get the modified game; everything else gets relaxed
    Wythoff, whose hypotheses every Beatty constraint satisfies (the value at
    x0 = 1 is floor(beta) - 1 >= 1 and all values are >= floor(beta) - 2 >= 0).
    """
    constraint = BeattyDelta(alpha)
    family = Family.MODIFIED if _classify(constraint.pair).compatible else Family.RELAXED
    return RuleSet(family, constraint), constraint


def enumerate_families(
    p_max: int, q_max: int, t_max: int
) -> List[Tuple[QuadraticNumber, ClassificationResult]]:
    """All family members within the parameter box, deduplicated exactly."""
    if not all(1 <= b <= MAX_FAMILY_BOUND for b in (p_max, q_max, t_max)):
        raise ValueError(f"bounds must be in [1, {MAX_FAMILY_BOUND}]: {p_max}, {q_max}, {t_max}")
    out: List[Tuple[QuadraticNumber, ClassificationResult]] = []
    seen = set()

    def push(alpha: Optional[QuadraticNumber]):
        if alpha is None or alpha in seen:
            return
        seen.add(alpha)
        out.append((alpha, classify_alpha(alpha)))

    for t in range(1, t_max + 1):
        push(golden_alpha(t))
    for p in range(1, p_max + 1):
        for q in range(1, q_max + 1):
            for bf in (3, 4):
                push(family_ii_alpha(p, q, bf))
            push(family_iii_alpha(p, q))
    return out


# -- serialization -----------------------------------------------------------------

FAMILIES_CSV_COLUMNS = [
    "family",
    "t_or_p",
    "q",
    "beta_floor",
    "alpha_p",
    "alpha_q",
    "alpha_r",
    "alpha_D",
    "alpha_decimal_approx",
]


def families_to_csv(entries: List[Tuple[QuadraticNumber, ClassificationResult]]) -> str:
    buf = io.StringIO()
    buf.write("# alpha_decimal_approx is a plotting aid only, not authoritative\n")
    writer = csv.writer(buf)
    writer.writerow(FAMILIES_CSV_COLUMNS)
    for alpha, res in entries:
        t_or_p = res.t if res.family is FamilyLabel.I else res.p
        writer.writerow(
            [
                res.family.value,
                "" if t_or_p is None else t_or_p,
                "" if res.q is None else res.q,
                "" if res.beta_floor is None else res.beta_floor,
                alpha.p,
                alpha.q,
                alpha.r,
                alpha.D,
                alpha.decimal(10),
            ]
        )
    return buf.getvalue()


def classification_to_json(res: ClassificationResult) -> str:
    data = {
        "schema": SCHEMA,
        "kind": "classification",
        "family": res.family.value,
        "t": res.t,
        "p": res.p,
        "q": res.q,
        "beta_floor": res.beta_floor,
        "delta2_range": sorted(res.delta2_range),
        "also_matches": list(res.also_matches),
        "compatible": res.compatible,
    }
    return json.dumps(data, indent=2)


def classification_from_json(text: str) -> ClassificationResult:
    """Inverse of classification_to_json; a malformed structure raises ValueError."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError(f"a classification must be a JSON object, got {data!r}")
    try:
        family = FamilyLabel(data["family"])
        rng, also = data["delta2_range"], data.get("also_matches", [])
    except KeyError as exc:
        raise ValueError(f"malformed classification: {exc}") from exc
    params = {name: data.get(name) for name in ("t", "p", "q", "beta_floor")}
    # type(), not isinstance(): JSON true/false load as bool, a subclass of int
    for name, value, ok in (
        *((k, v, v is None or type(v) is int) for k, v in params.items()),
        ("delta2_range", rng, isinstance(rng, list) and all(type(v) is int for v in rng)),
        ("also_matches", also, isinstance(also, list) and all(type(v) is str for v in also)),
    ):
        if not ok:
            raise ValueError(f"malformed classification: {name} = {value!r}")
    return ClassificationResult(family, frozenset(rng), also_matches=tuple(also), **params)
