"""Independent checkers for the benchmark's outputs.

Nothing here imports ``restrictedsums``.  Every expected number is recomputed
from the inputs with plain ints (residues mod p), ``Fraction`` scaling, or a
formula derived apart from the program: brute-force value sets, the closed
forms of the per-variable floor bounds, and the Leibniz expansion of the
Vandermonde determinant.  Each checker raises :class:`CheckFailed` with a
reason on the first disagreement.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from math import comb, factorial, lcm


class CheckFailed(AssertionError):
    """An output of the program disagrees with the independent computation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------- brute-force value sets ----------
#
# A tail is a list of (coefficient, exponent tuple) pairs with integer
# coefficients; its total degree is below k.


def value_count_mod_p(p, sets, k, leading, tail, restricted=True) -> int:
    """Number of distinct values of sum a_i x_i^k + tail over GF(p)."""
    powers = [{x: a * pow(x, k, p) % p for x in s} for a, s in zip(leading, sets)]
    values = set()
    for point in itertools.product(*sets):
        if restricted and len(set(point)) != len(point):
            continue
        v = sum(powers[i][x] for i, x in enumerate(point))
        for c, exps in tail:
            term = c
            for x, e in zip(point, exps):
                term *= x**e
            v += term
        values.add(v % p)
    return len(values)


def value_count_rational(sets, k, tail, restricted=True) -> int:
    """Distinct values of sum x_i^k + tail over Q, unit leading coefficients.

    All elements are scaled by the common denominator D, and each value is
    multiplied by D^k, which is a bijection on values; the count is then
    taken over plain integers.
    """
    D = 1
    for s in sets:
        for x in s:
            D = lcm(D, Fraction(x).denominator)
    scaled = [[int(Fraction(x) * D) for x in s] for s in sets]
    tail_scaled = [(c * D ** (k - sum(exps)), exps) for c, exps in tail]
    values = set()
    for point in itertools.product(*scaled):
        if restricted and len(set(point)) != len(point):
            continue
        v = sum(x**k for x in point)
        for c, exps in tail_scaled:
            term = c
            for x, e in zip(point, exps):
                term *= x**e
            v += term
        values.add(v)
    return len(values)


# ---------- closed forms and hypotheses ----------


def staircase(sizes) -> bool:
    return all(s >= i for i, s in enumerate(sizes, start=1))


def clamp(char, x: int) -> int:
    """min(p(F), x); ``char`` is None for characteristic zero."""
    return x if char is None else min(char, x)


def thm11u_value(sizes, k, char) -> int:
    return clamp(char, 1 + sum((s - 1) // k for s in sizes))


def thm11r_value(sizes, k, char) -> int:
    return clamp(char, 1 + sum((s - i) // k for i, s in enumerate(sizes, start=1)))


def floor_minima_sum(sizes, k) -> int:
    """sum over i of min over j = i, i+k, ... <= n of floor((s_j - j) / k)."""
    n = len(sizes)
    return sum(
        min((sizes[j - 1] - j) // k for j in range(i, n + 1, k)) for i in range(1, n + 1)
    )


def thm12_value(sizes, k, char) -> int:
    return clamp(char, 1 + floor_minima_sum(sizes, k))


def scan_hypotheses(name, sizes, k, identical) -> bool:
    """Whether bound ``name`` applies to a family under a form with unit
    leading coefficients (hypotheses as published)."""
    n = len(sizes)
    if name == "thm12":
        return k <= n and staircase(sizes)
    if name == "thm13":
        return len(set(sizes)) == 1 and sizes[0] >= n
    if name == "thm11u":
        return True
    if name == "thm11r":
        return k >= n and staircase(sizes)
    if name == "conj11":
        return n >= k and identical and sizes[0] >= n
    raise CheckFailed(f"no hypotheses known for bound {name!r}")


# ---------- coefficient of the distinguished monomial ----------


def permutation_sign(perm) -> int:
    inversions = sum(1 for i, j in itertools.combinations(range(len(perm)), 2) if perm[i] > perm[j])
    return -1 if inversions % 2 else 1


def leibniz_coefficient(q, k) -> int:
    """Coefficient of x^t, t_i = k*q_i + (i - 1), in (x1^k+...+xn^k)^N * V.

    V = prod_{i<j} (x_j - x_i) = det[x_i^(j-1)] = sum_sigma sgn(sigma)
    prod_i x_i^(sigma(i) - 1), and the multinomial theorem gives the
    coefficient N! / prod_i c_i! of prod_i x_i^(k*c_i) in the power.
    """
    n = len(q)
    N = sum(q)
    t = [k * qi + i for i, qi in enumerate(q)]
    total = 0
    for sigma in itertools.permutations(range(n)):
        rest = [t[i] - sigma[i] for i in range(n)]
        if any(r < 0 or r % k for r in rest):
            continue
        c = [r // k for r in rest]
        if sum(c) != N:
            continue
        term = factorial(N)
        for ci in c:
            term //= factorial(ci)
        total += permutation_sign(sigma) * term
    return total


def coefficient_row_count(n_max, sum_max) -> int:
    return sum(
        comb(total + n - 1, n - 1)
        for n in range(1, n_max + 1)
        for _k in range(1, n + 1)
        for total in range(sum_max + 1)
    )


# ---------- report checkers ----------


def parse_summary(line: str, verb: str) -> list:
    """Integers of the CLI's one-line stderr summary, e.g.
    'verify-bounds: 60 rows, 40 checked, all bounds hold' -> [60, 40]."""
    require(line.startswith(verb + ":"), f"summary line {line!r} is not from {verb}")
    return [int(tok) for tok in line.replace(",", " ").split() if tok.isdigit()]


def check_scan_report(spec, verb, code, rows, jsonl, summary) -> None:
    """Check one verify-bounds/tightness report against brute force.

    ``spec`` holds the call's inputs: ``char`` (p or None), ``ks``,
    ``bounds``, ``families`` (lists of element lists, ints or 'a/b'),
    ``tail`` (coefficient, exponents) pairs, and ``counts``: for every
    family index and k, the brute-force ``(restricted, unrestricted)``
    value counts.  ``rows`` are the CSV rows as dicts keyed by header.
    """
    require(code == 0, f"{verb} exited with {code}")
    char = spec["char"]
    n = len(spec["families"][0])
    expected_rows = len(spec["families"]) * len(spec["ks"]) * len(spec["bounds"])
    require(len(rows) == expected_rows, f"{len(rows)} rows, expected {expected_rows}")
    require(len(jsonl) == len(rows), f"{len(jsonl)} JSONL records for {len(rows)} CSV rows")

    expected = Counter()  # (k, sizes, bound) -> multiset of actual counts
    checked = 0
    tight = 0
    for idx, fam in enumerate(spec["families"]):
        sizes = tuple(len(s) for s in fam)
        identical = all(sorted(map(Fraction, s)) == sorted(map(Fraction, fam[0])) for s in fam)
        for k in spec["ks"]:
            restricted, unrestricted = spec["counts"][idx, k]
            for name in spec["bounds"]:
                actual = unrestricted if name == "thm11u" else restricted
                expected[k, sizes, name, actual] += 1
                if scan_hypotheses(name, sizes, k, identical):
                    checked += 1
    seen = Counter()
    for row, record in zip(rows, jsonl):
        k = int(row["k"])
        sizes = tuple(int(s) for s in row["sizes"].split(";"))
        name = row["bound_name"]
        require(len(sizes) == n and k in spec["ks"], f"row for an unknown input: {row}")
        require(row["actual_cardinality"] != "", f"row was not enumerated: {row}")
        actual = int(row["actual_cardinality"])
        seen[k, sizes, name, actual] += 1
        hyp = row["hypotheses_ok"] == "true"
        bound = row["bound_value"]
        if name == "thm11u":
            require(int(bound) == thm11u_value(sizes, k, char), f"thm11u value wrong: {row}")
        if name == "thm11r" and hyp:
            require(int(bound) == thm11r_value(sizes, k, char), f"thm11r value wrong: {row}")
        if hyp:
            require(actual >= int(bound), f"bound violated: {row}")
            tight += actual == int(bound)
        same = (
            int(record["k"]) == k
            and tuple(record["sizes"]) == sizes
            and record["bound_name"] == name
            and record["actual_cardinality"] == actual
        )
        require(same, f"JSONL record {record} does not mirror CSV row {row}")
    for key in expected.keys() | seen.keys():
        require(
            seen[key] == expected[key],
            f"(k, sizes, bound, cardinality) = {key}: report has {seen[key]}, "
            f"brute force gives {expected[key]}",
        )
    got_checked = sum(1 for r in rows if r["hypotheses_ok"] == "true")
    require(got_checked == checked, f"{got_checked} rows checked, hypotheses give {checked}")
    numbers = parse_summary(summary, verb)
    if verb == "verify-bounds":
        require(numbers == [expected_rows, checked], f"summary {summary!r}, expected "
                f"{expected_rows} rows and {checked} checked")
        require(summary.endswith("all bounds hold"), f"summary {summary!r}")
    else:
        require(numbers == [expected_rows, tight, 0], f"summary {summary!r}, expected "
                f"{expected_rows} rows, {tight} tight, 0 violations")


def check_coefficient_table(code, rows, n_max, sum_max, sample) -> None:
    """verify-coeff report: every row ok, the row count, and the closed form
    of the sampled rows against the Leibniz expansion."""
    require(code == 0, f"verify-coeff exited with {code}")
    want = coefficient_row_count(n_max, sum_max)
    require(len(rows) == want, f"{len(rows)} coefficient rows, expected {want}")
    for row in rows:
        require(row["status"] == "ok", f"identity row not ok: {row}")
        require(row["closed_form"] == row["oracle"], f"closed form != oracle: {row}")
    keys = {(int(row["n"]), int(row["k"]), row["q"]) for row in rows}
    require(len(keys) == want, "coefficient rows repeat")
    for index in sample:
        row = rows[index % len(rows)]
        q = tuple(int(x) for x in row["q"].split(";"))
        k = int(row["k"])
        require(len(q) == int(row["n"]) and sum(q) == int(row["N"]), f"malformed row {row}")
        leibniz = leibniz_coefficient(q, k)
        require(int(row["closed_form"]) == leibniz,
                f"closed form {row['closed_form']} != Leibniz {leibniz} for q={q}, k={k}")


def check_replay(code, payload, p, sets, k) -> None:
    """proof-replay with an expanded certificate, unit leading, zero tail."""
    require(code == 0, f"proof-replay exited with {code}")
    sizes = tuple(len(s) for s in sets)
    n = len(sets)
    N = min(p, 1 + floor_minima_sum(sizes, k))
    require(payload["N"] == N, f"N = {payload['N']}, expected {N}")
    h = int(payload["h"])
    require(h != 0 and factorial(N - 1) % h == 0, f"h = {h} does not divide ({N}-1)!")
    require(h % p != 0, f"h = {h} vanishes mod {p}")
    q_prime = tuple(payload["q_prime"])
    require(sum(q_prime) == N - 1, f"q' = {q_prime} does not sum to N - 1")
    require(h == leibniz_coefficient(q_prime, k), f"h = {h} is not the coefficient for q' = {q_prime}")
    shrunk_sizes = payload["shrunk_sizes"]
    shrunk = [sorted(s)[:m] for s, m in zip(sets, shrunk_sizes)]
    require(all(i <= m <= len(s) for i, (s, m) in enumerate(zip(sets, shrunk_sizes), start=1)),
            f"shrunk sizes {shrunk_sizes} out of range for {sizes}")

    witness = payload["witness"]
    require(witness is not None, "replay has no witness")
    point = [int(x) for x in witness["point"]]
    excluded = [int(c) for c in witness["excluded_values"]]
    require(len(point) == n, f"witness {point} has the wrong length")
    require(len(set(point)) == n, f"witness {point} repeats a coordinate")
    require(all(x in s for x, s in zip(point, shrunk)), f"witness {point} is outside {shrunk}")
    value = sum(pow(x, k, p) for x in point) % p
    require(int(witness["value"]) == value, f"witness value {witness['value']}, expected {value}")
    require(len(excluded) == N - 1 and len(set(excluded)) == N - 1,
            f"{len(excluded)} excluded values, expected {N - 1} distinct")
    require(value not in excluded, f"witness value {value} is among the excluded values")

    cert = payload["cn_certificate"]
    require(cert is not None and cert["nonzero"], "expanded certificate missing or zero")
    require(int(cert["coefficient"]) == h % p, f"certificate coefficient {cert['coefficient']} != h mod p")
    w = [int(x) for x in cert["witness"]]
    require(all(x in s for x, s in zip(w, shrunk)), f"certificate witness {w} outside {shrunk}")
    fw = sum(pow(x, k, p) for x in w)
    q_value = 1
    for c in excluded:
        q_value *= fw - c
    for i, j in itertools.combinations(range(n), 2):
        q_value *= w[j] - w[i]
    require(q_value % p != 0, f"certificate witness {w} is a zero of Q")
    require(int(cert["witness_value"]) == q_value % p, "certificate witness value is wrong")


def check_lattice(spec, min_card, checked, violations, samples) -> None:
    """One subset-lattice fold and its profile checks.

    ``spec``: p, n, k, restricted, bounds (names), char.  ``samples`` is a
    list of (sizes, brute-force count) for seeded families plus the full
    family.
    """
    p, n, k = spec["p"], spec["n"], spec["k"]
    require(min_card.shape == (p + 1,) * n, f"minimum array has shape {min_card.shape}")
    for axis in range(n):
        lower = min_card.take(range(p), axis=axis).astype(int)
        upper = min_card.take(range(1, p + 1), axis=axis).astype(int)
        require(bool((upper >= lower).all()), f"a minimum falls when size {axis + 1} grows")
    want = 0
    for sizes in itertools.product(range(1, p + 1), repeat=n):
        mc = int(min_card[sizes])
        for name in spec["bounds"]:
            bound = profile_bound(name, sizes, k, p)
            if bound is None:
                continue
            want += 1
            require(mc >= bound, f"{name} fails at {sizes}: minimum {mc} < {bound}")
    require(checked == want, f"{checked} profiles checked, hypotheses give {want}")
    require(not violations, f"program reported violations {violations[:3]}")
    for sizes, count in samples:
        mc = int(min_card[sizes])
        require(mc <= count, f"lattice minimum {mc} at {sizes} exceeds a family's count {count}")
        if all(s == p for s in sizes):
            require(mc == count, f"full-profile minimum {mc} != count {count}")


def profile_bound(name, sizes, k, p):
    """Bound of ``name`` at a size profile, or None where it does not apply.
    Unit leading coefficients are implied for thm12 and thm13."""
    n = len(sizes)
    if name == "thm12":
        return thm12_value(sizes, k, p) if k <= n and staircase(sizes) else None
    if name == "thm13":
        # the equal-size closed form is thm12 at equal sizes (k <= n here)
        return thm12_value(sizes, k, p) if len(set(sizes)) == 1 and sizes[0] >= n and k <= n else None
    if name == "thm11u":
        return thm11u_value(sizes, k, p)
    if name == "thm11r":
        return thm11r_value(sizes, k, p) if k >= n and staircase(sizes) else None
    raise CheckFailed(f"no profile bound {name!r}")
