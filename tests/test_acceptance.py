"""Acceptance suite: one test per acceptance criterion, each printing a
single pass/fail line (visible even under pytest's capture) and asserting
the criterion exactly.  Shared lattice sweeps are cached for the session.
"""

import itertools
import json
import random
import time
from contextlib import contextmanager
from math import factorial, prod

import pytest

from restrictedsums import (
    DEFAULT_TUPLE_GUARD,
    ExtendedNat,
    PowerSumForm,
    SetFamily,
    cli,
    coefficient_formula,
    derive_seed,
    equal_size_bound,
    equal_size_floor_sum,
    floor_minima,
    lattice_min_cardinality,
    check_lattice_bounds,
    multiplicity_value_set,
    MultiplicityProfile,
    power_sum_pow,
    prime_field,
    proof_replay,
    random_tail,
    residue_class_bound,
    restricted_floor_bound,
    roots_model_cardinality,
    target_monomial,
    unrestricted_floor_bound,
    vandermonde,
)
from restrictedsums.bounds import BOUNDS
from restrictedsums.poly import _field_form
from restrictedsums.sweeps import _value_counts
from permutations import Permutation
from sampling import random_leading, random_sizes, random_subset

LATTICE_PRIMES = (3, 5, 7)
SAMPLED_PRIMES = (11, 13)
TAILS_PER_CASE = 3
SAMPLES_PER_CASE = 200
FEASIBLE_WITNESS_SPACE = 10**5


class _Report:
    """Mutable holder so a criterion can attach a detail string."""

    def __init__(self):
        self.detail = ""


@contextmanager
def criterion(capsys, num, label):
    rep = _Report()
    ok = False
    try:
        yield rep
        ok = True
    finally:
        suffix = f" ({rep.detail})" if rep.detail else ""
        with capsys.disabled():
            print(f"\n[criterion {num}] {label}: {'PASS' if ok else 'FAIL'}{suffix}")


@pytest.fixture(scope="session")
def lattice_cache():
    """Minimum-cardinality arrays keyed by (p, n, k, tail index); shared by
    the inequality criteria so each lattice folds once per session."""
    return {}


def unit_lattice(cache, p, n, k, tail_idx):
    key = (p, n, k, tail_idx)
    if key not in cache:
        rng = random.Random(derive_seed("acceptance-lattice", p, n, k, tail_idx))
        tail = random_tail(rng, n, k)
        cache[key] = lattice_min_cardinality(p, k, (1,) * n, tail)
    return cache[key]


def sampled_count(fam, f, restricted):
    """One sampled family's value-set cardinality, through the route chooser
    the CLI scans use."""
    ((count,),) = _value_counts(fam, (_field_form(fam.field, fam.n, f),), (restricted,), DEFAULT_TUPLE_GUARD)
    return count


# ---------------------------------------------------------------- criterion 1


def test_criterion_1_coefficient_identity(capsys):
    with criterion(capsys, 1, "coefficient closed form equals expansion oracle") as rep:
        start = time.monotonic()
        checked = 0
        for n in range(1, 6):
            for k in range(1, n + 1):
                for total in range(0, 7):
                    product = power_sum_pow(n, k, total).mul(vandermonde(n))
                    for q in _weak_compositions(total, n):
                        closed = coefficient_formula(q, k)
                        oracle = product.coefficient_of(target_monomial(q, k))
                        assert closed == oracle, (n, k, q, closed, oracle)
                        checked += 1
        elapsed = time.monotonic() - start
        assert elapsed < 120.0, f"runtime budget exceeded: {elapsed:.1f}s"
        rep.detail = f"{checked} identities, {elapsed:.1f}s"


def _weak_compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _weak_compositions(total - first, parts - 1):
            yield (first,) + rest


# ---------------------------------------------------------------- criterion 2


def test_criterion_2_residue_class_bound_sweep(capsys, lattice_cache):
    with criterion(capsys, 2, "residue-class bound holds on every family") as rep:
        checked = 0
        violations = []
        for p in LATTICE_PRIMES:
            field = prime_field(p)
            cap = min(p, 5)
            for n in range(1, 5):
                for k in range(1, n + 1):
                    form = _field_form(field, n, PowerSumForm.unit(n, k))

                    def bound_fn(sizes):
                        if any(s > cap for s in sizes):
                            return None
                        return BOUNDS["thm12"].for_sizes(sizes, form)

                    for tail_idx in range(TAILS_PER_CASE):
                        mc = unit_lattice(lattice_cache, p, n, k, tail_idx)
                        c, viol, _ = check_lattice_bounds(mc, p, bound_fn)
                        checked += c
                        violations.extend((p, n, k, tail_idx) + v for v in viol)
        for p in SAMPLED_PRIMES:
            field, char = prime_field(p), ExtendedNat(p)
            for n in range(1, 5):
                for k in range(1, n + 1):
                    rng = random.Random(derive_seed("acceptance-2", p, n, k))
                    for _ in range(SAMPLES_PER_CASE):
                        sizes = random_sizes(rng, n, lambda i: i, 8)
                        sets = [random_subset(rng, p, s) for s in sizes]
                        fam = SetFamily.from_elements(field, sets)
                        bound = residue_class_bound(sizes, k, char).value
                        for _ in range(TAILS_PER_CASE):
                            tail = random_tail(rng, n, k)
                            actual = sampled_count(fam, PowerSumForm.unit(n, k, tail), True)
                            checked += 1
                            if actual < bound:
                                violations.append((p, n, k, sets, tail, actual, bound))
        assert not violations, violations[:3]
        # each lattice row aggregates every family with that size profile,
        # so 4329 profile rows + 12000 sampled families is the full sweep
        assert checked == 16_329
        rep.detail = f"{checked} rows, 0 violations"


# ---------------------------------------------------------------- criterion 3


def test_criterion_3_per_variable_floor_bounds(capsys):
    with criterion(capsys, 3, "per-variable floor bounds, both variants") as rep:
        checked = 0
        violations = []
        for p in LATTICE_PRIMES:
            field = prime_field(p)
            cap = min(p, 5)
            for n in range(1, 5):
                # unrestricted variant: arbitrary nonzero leading, any sizes
                for k in range(1, n + 1):
                    rng = random.Random(derive_seed("acceptance-3u", p, n, k))
                    for tail_idx in range(TAILS_PER_CASE):
                        leading = random_leading(rng, n, p)
                        tail = random_tail(rng, n, k)
                        mc = lattice_min_cardinality(p, k, leading, tail, restricted=False)
                        form = _field_form(field, n, PowerSumForm(k, leading, tail))

                        def bound_u(sizes):
                            if any(s > cap for s in sizes):
                                return None
                            return BOUNDS["thm11u"].for_sizes(sizes, form)

                        c, viol, _ = check_lattice_bounds(mc, p, bound_u)
                        checked += c
                        violations.extend(("u", p, n, k, tail_idx) + v for v in viol)
                # restricted variant: needs k >= n and the size staircase
                for k in range(n, n + 3):
                    rng = random.Random(derive_seed("acceptance-3r", p, n, k))
                    for tail_idx in range(TAILS_PER_CASE):
                        leading = random_leading(rng, n, p)
                        tail = random_tail(rng, n, k)
                        mc = lattice_min_cardinality(p, k, leading, tail, restricted=True)
                        form = _field_form(field, n, PowerSumForm(k, leading, tail))

                        def bound_r(sizes):
                            if any(s > cap for s in sizes):
                                return None
                            return BOUNDS["thm11r"].for_sizes(sizes, form)

                        c, viol, _ = check_lattice_bounds(mc, p, bound_r)
                        checked += c
                        violations.extend(("r", p, n, k, tail_idx) + v for v in viol)
        for p in SAMPLED_PRIMES:
            field, char = prime_field(p), ExtendedNat(p)
            for n in range(1, 5):
                for k in range(1, n + 1):
                    rng = random.Random(derive_seed("acceptance-3us", p, n, k))
                    for _ in range(SAMPLES_PER_CASE):
                        sizes = random_sizes(rng, n, lambda i: 1, 8)
                        sets = [random_subset(rng, p, s) for s in sizes]
                        fam = SetFamily.from_elements(field, sets)
                        leading = random_leading(rng, n, p)
                        bound = unrestricted_floor_bound(sizes, k, char).value
                        for _ in range(TAILS_PER_CASE):
                            tail = random_tail(rng, n, k)
                            actual = sampled_count(fam, PowerSumForm(k, leading, tail), False)
                            checked += 1
                            if actual < bound:
                                violations.append(("u", p, n, k, sets, actual, bound))
                for k in range(n, n + 3):
                    rng = random.Random(derive_seed("acceptance-3rs", p, n, k))
                    for _ in range(SAMPLES_PER_CASE):
                        sizes = random_sizes(rng, n, lambda i: i, 8)
                        sets = [random_subset(rng, p, s) for s in sizes]
                        fam = SetFamily.from_elements(field, sets)
                        leading = random_leading(rng, n, p)
                        bound = restricted_floor_bound(sizes, k, char).value
                        for _ in range(TAILS_PER_CASE):
                            tail = random_tail(rng, n, k)
                            actual = sampled_count(fam, PowerSumForm(k, leading, tail), True)
                            checked += 1
                            if actual < bound:
                                violations.append(("r", p, n, k, sets, actual, bound))
        assert not violations, violations[:3]
        assert checked == 49_083
        rep.detail = f"{checked} rows, 0 violations"


# ---------------------------------------------------------------- criterion 4


def test_criterion_4_equal_size_bound_and_identity(capsys, lattice_cache):
    with criterion(capsys, 4, "equal-size closed form: identity and sweep") as rep:
        identities = 0
        for m in range(1, 21):
            for n in range(1, m + 1):
                for k in range(1, n + 1):
                    assert equal_size_floor_sum(m, n, k) == sum(
                        floor_minima((m,) * n, k)
                    ), (m, n, k)
                    identities += 1
        checked = 0
        violations = []
        for p in LATTICE_PRIMES:
            char = ExtendedNat(p)
            cap = min(p, 5)
            for n in range(1, 5):
                for k in range(1, n + 1):
                    for tail_idx in range(TAILS_PER_CASE):
                        mc = unit_lattice(lattice_cache, p, n, k, tail_idx)
                        for m in range(n, cap + 1):
                            bound = equal_size_bound(m, n, k, char).value
                            actual = int(mc[(m,) * n])
                            checked += 1
                            if actual < bound:
                                violations.append((p, n, k, m, actual, bound))
        for p in SAMPLED_PRIMES:
            field, char = prime_field(p), ExtendedNat(p)
            for n in range(1, 5):
                for k in range(1, n + 1):
                    rng = random.Random(derive_seed("acceptance-4", p, n, k))
                    for _ in range(SAMPLES_PER_CASE):
                        m = rng.randint(n, 8)
                        sets = [random_subset(rng, p, m) for _ in range(n)]
                        fam = SetFamily.from_elements(field, sets)
                        bound = equal_size_bound(m, n, k, char).value
                        for _ in range(TAILS_PER_CASE):
                            tail = random_tail(rng, n, k)
                            actual = sampled_count(fam, PowerSumForm.unit(n, k, tail), True)
                            checked += 1
                            if actual < bound:
                                violations.append((p, n, k, sets, actual, bound))
        assert not violations, violations[:3]
        assert checked == 12_210
        rep.detail = f"{identities} identities, {checked} sweep rows, 0 violations"


# ---------------------------------------------------------------- criterion 5


def test_criterion_5_sharpness_model_exact(capsys):
    with criterion(capsys, 5, "sharpness model formula equals enumeration") as rep:
        checked = 0
        for k in range(1, 5):
            for q in range(0, 4):
                for r in range(0, k):
                    for n in range(1, k * q + r + 1):
                        formula = roots_model_cardinality(n, k, q, r).value
                        enumerated = multiplicity_value_set(
                            MultiplicityProfile(k=k, q=q, r=r, n=n)
                        ).cardinality
                        assert formula == enumerated, (n, k, q, r)
                        checked += 1
        rep.detail = f"{checked} profiles exact"


# ---------------------------------------------------------------- criterion 6


def test_criterion_6_pair_sum_base_case(capsys):
    with criterion(capsys, 6, "restricted pair sums and progression tightness") as rep:
        checked = 0
        tight = 0
        for p in (2, 3, 5, 7, 11, 13):
            for s in range(1, min(6, p) + 1):
                bound = min(p, 2 * s - 3)
                for subset in itertools.combinations(range(p), s):
                    sums = {(a + b) % p for a in subset for b in subset if a != b}
                    assert len(sums) >= bound, (p, subset)
                    checked += 1
            # arithmetic progressions attain the bound exactly
            for s in range(2, min(6, p) + 1):
                for start in range(p):
                    for step in range(1, p):
                        prog = [(start + t * step) % p for t in range(s)]
                        assert len(set(prog)) == s
                        sums = {(a + b) % p for a in prog for b in prog if a != b}
                        assert len(sums) == min(p, 2 * s - 3), (p, prog)
                        tight += 1
        rep.detail = f"{checked} subsets hold, {tight} progressions tight"


# ---------------------------------------------------------------- criterion 7


def test_criterion_7_sign_multiplicativity(capsys):
    with criterion(capsys, 7, "permutation sign splits over invariant subsets") as rep:
        checked = 0
        for n in range(1, 7):
            points = range(1, n + 1)
            for images in itertools.permutations(points):
                perm = Permutation.from_one_line(images)
                cycles = perm.cycles()
                for take in range(1 << len(cycles)):
                    part = {
                        x
                        for idx, cyc in enumerate(cycles)
                        if take >> idx & 1
                        for x in cyc
                    }
                    rest = set(points) - part
                    left = perm.restrict(part).sign() if part else 1
                    right = perm.restrict(rest).sign() if rest else 1
                    assert perm.sign() == left * right, (images, sorted(part))
                    checked += 1
        rep.detail = f"{checked} invariant splits"


# ---------------------------------------------------------------- criterion 8


def test_criterion_8_proof_replay_sample(capsys):
    with criterion(capsys, 8, "replayed construction certifies on samples") as rep:
        rng = random.Random(derive_seed("acceptance-8"))
        instances = 0
        witnessed = 0
        expanded = 0
        while instances < 60:
            p = rng.choice((5, 7, 11, 13))
            n = rng.randint(1, 4)
            k = rng.randint(1, n)
            try:
                sizes = random_sizes(rng, n, lambda i: i, min(p, 7))
            except ValueError:
                continue
            sets = [random_subset(rng, p, s) for s in sizes]
            family = SetFamily.from_elements(prime_field(p), sets)
            replay = proof_replay(family, k, guard_tuples=FEASIBLE_WITNESS_SPACE)
            assert factorial(replay.N - 1) % replay.h == 0
            assert not replay.h_element.is_zero
            instances += 1
            if prod(replay.shrunk_family.sizes) <= FEASIBLE_WITNESS_SPACE:
                assert replay.witness is not None, (p, sets, k)
                assert replay.value_count >= replay.N
                witnessed += 1
            if replay.N <= 4 and n <= 3 and expanded < 8:
                full = proof_replay(
                    family, k, expand_certificate=True, guard_tuples=FEASIBLE_WITNESS_SPACE
                )
                cert = full.cn_certificate
                assert cert is not None and cert.nonzero
                assert cert.coefficient == full.h_element
                assert cert.witness is not None
                expanded += 1
        assert instances >= 50
        assert witnessed == instances  # all spaces here fit under the guard
        assert expanded >= 5
        rep.detail = f"{instances} replays, {witnessed} witnessed, {expanded} expanded"


# ---------------------------------------------------------------- criterion 9


def test_criterion_9_cli_determinism(capsys, tmp_path):
    with criterion(capsys, 9, "CLI reports are byte-identical across reruns") as rep:
        configs = {
            "verify-bounds": {
                "field": "gf(11)",
                "k": [1, 2],
                "bounds": ["thm12", "thm13", "thm11u", "thm11r", "anr", "dsh"],
                "sample": {"sizes": [[3, 4]], "count": 5},
            },
            "tightness": {
                "field": "gf(7)",
                "k": 2,
                "bounds": ["thm12", "conj11"],
                "sample": {"sizes": [[4, 4]], "count": 5, "equal_sets": True},
            },
            "tightness-profiles": {"profiles": {"k_max": 3, "q_max": 2}},
            "verify-coeff": {"n_max": 3, "sum_max": 3},
            "example41": {"n": 2, "k": 2, "q": 2, "r": 1},
            "proof-replay": {
                "family": {"field": "gf(11)", "sets": [[0, 1, 2, 3, 4]] * 3},
                "k": 2,
            },
        }
        verbs = {
            "verify-bounds": "verify-bounds",
            "tightness": "tightness",
            "tightness-profiles": "tightness",
            "verify-coeff": "verify-coeff",
            "example41": "example41",
            "proof-replay": "proof-replay",
        }
        compared = 0
        for name, cfg in configs.items():
            cfg_path = tmp_path / f"{name}.json"
            cfg_path.write_text(json.dumps(cfg))
            runs = []
            for attempt in range(2):
                out = tmp_path / f"{name}.{attempt}.out"
                jsonl = tmp_path / f"{name}.{attempt}.jsonl"
                argv = [verbs[name], "--config", str(cfg_path), "--out", str(out)]
                if verbs[name] in ("verify-bounds", "tightness", "example41"):
                    argv += ["--seed", "17"]  # the verbs that read a seed
                if verbs[name] != "proof-replay":
                    argv += ["--jsonl", str(jsonl)]
                assert cli.main(argv) == 0, name
                payload = out.read_bytes()
                if jsonl.exists():
                    payload += b"\x00" + jsonl.read_bytes()
                runs.append(payload)
            assert runs[0] == runs[1], f"{name} drifted between runs"
            compared += 1
        capsys.readouterr()  # swallow the verbs' stderr summaries
        rep.detail = f"{compared} commands byte-stable"
