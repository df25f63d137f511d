"""Independent references the benchmark checks the engine against.

Nothing here calls the engine's arithmetic, generators or classifier: the
Beatty rows come from this module's own exact floors, the parity table from
the closed odd/even form, and the game search from `games.legal_moves` alone
(the move rule itself, searched naively instead of by the oracle's shortcuts).
"""

from __future__ import annotations

from math import gcd, isqrt


def _floor(u: int, w: int, den: int, d: int) -> int:
    """floor((u + w*sqrt(d)) / den) for den > 0 and non-square d."""
    s = isqrt(w * w * d) if w >= 0 else -isqrt(w * w * d) - 1
    return (u + s) // den


def is_slope(p: int, q: int, r: int, d: int) -> bool:
    """Whether (p + q*sqrt(d))/r is an irrational in (1, 2), for r > 0."""
    if q == 0 or isqrt(d) ** 2 == d:
        return False
    return _floor(p, q, r, d) == 1


def normal_form(p: int, q: int, r: int, d: int):
    """(p, q, r, d) with square-free d and gcd(p, q, r) = 1, for r > 0."""
    f = 2
    while f * f <= d:
        while d % (f * f) == 0:
            d //= f * f
            q *= f
        f += 1
    g = gcd(gcd(p, q), r)
    return p // g, q // g, r // g, d


def beatty_rows(p: int, q: int, r: int, d: int, count: int):
    """Rows (floor(n*alpha), floor(n*beta)) for n < count, alpha = (p + q*sqrt(d))/r.

    beta = alpha/(alpha - 1), rationalised here by hand:
    (p^2 - p*r - q^2*d - q*r*sqrt(d)) / ((p - r)^2 - q^2*d).
    """
    bp, bq, br = p * p - p * r - q * q * d, -q * r, (p - r) ** 2 - q * q * d
    if br < 0:
        bp, bq, br = -bp, -bq, -br
    return [(_floor(n * p, n * q, r, d), _floor(n * bp, n * bq, br, d)) for n in range(count)]


def golden(t: int):
    """Slope of the t-Wythoff Beatty pair, beta = alpha + t: (2 - t + sqrt(t^2 + 4))/2."""
    return (2 - t, 1, 2, t * t + 4)


def second_differences(rows):
    """[None, d_1, d_2, ...] with d_n = (b_n - b_{n-1}) - (a_n - a_{n-1})."""
    return [None] + [
        (rows[n][1] - rows[n - 1][1]) - (rows[n][0] - rows[n - 1][0]) for n in range(1, len(rows))
    ]


def compatible(rows) -> bool:
    """The inequality 2*min - max >= 1 over the second differences the rows show."""
    seen = set(second_differences(rows)[1:])
    return 2 * min(seen) - max(seen) >= 1


def gap_reports(rows, horizon: int):
    """(n, k, gap_size, filled) for every positive gap f_k - 2*f_n + 1 up to horizon."""
    f = second_differences(rows)
    out = []
    for n in range(2, horizon + 1):
        for k in range(1, n):
            size = f[k] - 2 * f[n] + 1
            if size > 0:
                lo = rows[n][0] + rows[k - 1][1] - rows[k - 1][0] + f[n]
                filled = any(lo <= rows[j][1] <= lo + size - 1 for j in range(n))
                out.append((n, k, size, filled))
    return out


def family_box(p_max: int, q_max: int, t_max: int):
    """Slopes of the four-family construction inside the box, as (p, q, r, d).

    Family I: golden(t).  Family II: (2q - m + sqrt(4pq + m^2))/(2q) with
    m = b*p - 1 and floor(beta) = b in {3, 4}.  Family III:
    (3q - 3p - 1 + sqrt(4pq + m^2))/(2q) with m = q - 3p - 1 and
    floor(beta) = 4.  A candidate is kept when it is an irrational in (1, 2)
    whose beta has the floor the family requires; equal values appear once,
    in normal form.
    """
    out, seen = [], set()

    def push(p, q, r, d, beta_floor=None):
        if not is_slope(p, q, r, d):
            return
        if beta_floor is not None and beatty_rows(p, q, r, d, 2)[1][1] != beta_floor:
            return
        key = normal_form(p, q, r, d)
        if key not in seen:
            seen.add(key)
            out.append(key)

    for t in range(1, t_max + 1):
        push(*golden(t))
    for p in range(1, p_max + 1):
        for q in range(1, q_max + 1):
            for b in (3, 4):
                m = b * p - 1
                push(2 * q - m, 1, 2 * q, 4 * p * q + m * m, b)
            m = q - 3 * p - 1
            push(3 * q - 3 * p - 1, 1, 2 * q, 4 * p * q + m * m, 4)
    return out


def parity_table(count: int):
    """Criterion 5's closed form for the modified parity game.

    (0, 0), (1, 1), then a_n = mex of the earlier values and
    b_n = a_n + b_{n-1} when b_{n-1} is odd, else a_n + b_{n-1} - a_{n-1}.
    """
    pairs = [(0, 0), (1, 1)][:count]
    used = {0, 1}
    a = 1
    while len(pairs) < count:
        while a in used:
            a += 1
        a_prev, b_prev = pairs[-1]
        b = a + b_prev if b_prev % 2 == 1 else a + b_prev - a_prev
        pairs.append((a, b))
        used.update((a, b))
    return pairs


def naive_p_positions(games, rules, bound: int):
    """P-positions with y <= bound by plain backward search over legal_moves."""
    pset = set()
    for total in range(2 * bound + 1):
        for x in range(max(0, total - bound), total // 2 + 1):
            pos = games.Position(x, total - x)
            if pset.isdisjoint(games.legal_moves(rules, pos)):
                pset.add(pos)
    return pset
