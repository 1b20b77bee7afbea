"""The benchmark's four workloads.

Each workload draws its inputs from the workload seed, hands the program
only those inputs (through the public API, or the CLI's ``main`` in
process), and checks every output with :mod:`checks`.  ``run(i)`` is the
timed unit call number ``i``; ``check(i, output)`` runs after the timer
stops.  Inputs are generated for a pool of calls up front and reused
cyclically if a run outlasts the pool.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import random
from fractions import Fraction

import checks


def _rng(*parts) -> random.Random:
    return random.Random("|".join(str(p) for p in parts))


def _tail_terms(rng, n, k, max_terms) -> list:
    """Seeded integer tail of total degree < k as (coefficient, exponents)."""
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        while True:
            exps = tuple(rng.randint(0, k - 1) for _ in range(n))
            if sum(exps) < k:
                break
        terms[exps] = terms.get(exps, 0) + rng.choice((1, -1)) * rng.randint(1, 3)
    return [(c, e) for e, c in sorted(terms.items()) if c]


def _tail_text(terms) -> str:
    """Render (c, exps) pairs in the CLI's polynomial grammar."""
    parts = []
    for c, exps in terms:
        factors = [f"x{i}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(exps, start=1) if e]
        body = "*".join([str(abs(c))] + factors)
        parts.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def _read_csv(path) -> list:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _read_jsonl(path) -> list:
    with open(path) as handle:
        return [json.loads(line) for line in handle]


def _run_cli(cli, argv):
    """cli.main in process; returns (exit code, last stderr line)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    lines = err.getvalue().strip().splitlines()
    return code, lines[-1] if lines else ""


# ---------- sweep: full subset-lattice folds ----------


class Sweep:
    """GF(7), n = 4 lattices in rounds of three variants:
    restricted with unit leading coefficients (thm12, thm13), unrestricted
    with seeded leading coefficients (thm11u), and restricted with seeded
    leading coefficients and k >= n (thm11r).  Every variant has a seeded
    tail of degree < k."""

    name = "sweep"
    kernel = "numpy"
    calls_per_round = 3
    pool = 12
    samples_per_call = 6

    def __init__(self, rs, seed, workdir, p=7, n=4):
        self.rs = rs
        self.p, self.n = p, n
        self.inputs = [self._make(seed, i) for i in range(self.pool)]

    def _make(self, seed, i) -> dict:
        rng = _rng("sweep", seed, i)
        p, n = self.p, self.n
        variant = i % 3
        if variant == 0:
            k, leading, restricted, bounds = rng.choice((2, 3, 4)), (1,) * n, True, ("thm12", "thm13")
        elif variant == 1:
            k, restricted, bounds = rng.choice((1, 2, 3, 4)), False, ("thm11u",)
            leading = tuple(rng.randint(1, p - 1) for _ in range(n))
        else:
            k, restricted, bounds = rng.choice((4, 5, 6)), True, ("thm11r",)
            leading = tuple(rng.randint(1, p - 1) for _ in range(n))
        tail = _tail_terms(rng, n, k, 3)
        families = []
        for _ in range(self.samples_per_call):
            sizes = tuple(rng.randint(1, p) for _ in range(n))
            families.append([sorted(rng.sample(range(p), s)) for s in sizes])
        families.append([list(range(p))] * n)
        return {"p": p, "n": n, "k": k, "leading": leading, "restricted": restricted,
                "bounds": bounds, "tail": tail, "families": families}

    def warm_up(self) -> None:
        small = Sweep(self.rs, "warm-up", None, p=5, n=3)
        for i in range(small.calls_per_round):
            small.check(i, small.run(i))

    def _bound_fn(self, name, k):
        rs, n = self.rs, self.n
        char = rs.ExtendedNat(self.p)
        if name == "thm12":
            return lambda s: rs.residue_class_bound(s, k, char).value if checks.staircase(s) else None
        if name == "thm13":
            return lambda s: (
                rs.equal_size_bound(s[0], n, k, char).value if len(set(s)) == 1 and s[0] >= n else None
            )
        if name == "thm11u":
            return lambda s: rs.unrestricted_floor_bound(s, k, char).value
        return lambda s: rs.restricted_floor_bound(s, k, char).value if checks.staircase(s) else None

    def run(self, i):
        spec = self.inputs[i % self.pool]
        rs = self.rs
        tail = rs.SparsePoly(self.n, {e: c for c, e in spec["tail"]})
        min_card = rs.lattice_min_cardinality(
            spec["p"], spec["k"], spec["leading"], tail, restricted=spec["restricted"]
        )
        checked, violations = 0, []
        for name in spec["bounds"]:
            c, v, _tight = rs.check_lattice_bounds(min_card, spec["p"], self._bound_fn(name, spec["k"]))
            checked += c
            violations.extend(v)
        return min_card, checked, violations

    def check(self, i, output) -> None:
        spec = self.inputs[i % self.pool]
        min_card, checked, violations = output
        samples = []
        for sets in spec["families"]:
            count = checks.value_count_mod_p(
                spec["p"], sets, spec["k"], spec["leading"], spec["tail"], spec["restricted"]
            )
            samples.append((tuple(len(s) for s in sets), count))
        checks.check_lattice(spec, min_card, checked, violations, samples)


# ---------- scans: verify-bounds and tightness through the CLI ----------


def _rational_pool() -> list:
    pool = {Fraction(a) for a in range(-4, 5)}
    pool |= {Fraction(a, b) for a in range(-5, 6) for b in (2, 3)}
    return sorted(pool)


def _encode_rational(x: Fraction):
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


class Scan:
    """verify-bounds and tightness, alternating, one CLI invocation per unit
    call, each call on two seeded families of its own: one of independently
    drawn sets with the fixed size vector ``sizes``, and one of n copies of a
    set of the largest of those sizes, so the equal-size bounds apply.
    Fixed sizes keep the calls alike in size."""

    kernel = "python"
    calls_per_round = 2
    ks = (2, 3, 4)
    verify_bounds = ("thm12", "thm13", "thm11u", "thm11r")

    def __init__(self, rs, seed, workdir, rational=False, sizes=None, pool=64, tag=""):
        self.rs = rs
        self.rational = rational
        self.name = "scan-rational" if rational else "scan-gf13"
        self.tag = tag + self.name
        self.sizes = sizes or ((5, 5, 6, 6) if rational else (6, 6, 7, 8))
        self.n = len(self.sizes)
        self.workdir = workdir
        self.pool = pool
        self.inputs = [self._make(seed, i) for i in range(pool)]
        self._counts = {}

    def _make(self, seed, i) -> dict:
        rng = _rng(self.name, seed, i)
        elements = _rational_pool() if self.rational else list(range(13))
        independent = [sorted(rng.sample(elements, s)) for s in self.sizes]
        identical = [sorted(rng.sample(elements, max(self.sizes)))] * self.n
        fams = [[[_encode_rational(x) for x in s] if self.rational else s for s in sets]
                for sets in (independent, identical)]
        # an affine tail with every term present, so its degree stays below
        # the smallest k and its cost per tuple is the same in every call
        tail = [(rng.randint(1, 3), (0,) * self.n)]
        tail += [(rng.choice((1, -1)) * rng.randint(1, 3), tuple(int(j == i) for j in range(self.n)))
                 for i in range(self.n)]
        verb = "verify-bounds" if i % 2 == 0 else "tightness"
        bounds = list(self.verify_bounds) + ([] if verb == "verify-bounds" else ["conj11"])
        config = {
            "field": "rational" if self.rational else "gf(13)",
            "k": [self.ks[0], self.ks[-1]],
            "bounds": bounds,
            "families": fams,
            "tail": _tail_text(tail),
        }
        path = os.path.join(self.workdir, f"{self.tag}-{i}.json")
        with open(path, "w") as handle:
            json.dump(config, handle)
        return {"verb": verb, "config": path, "families": fams, "tail": tail, "bounds": bounds,
                "ks": self.ks, "char": None if self.rational else 13}

    def warm_up(self) -> None:
        small = Scan(self.rs, "warm-up", self.workdir, self.rational, sizes=(4,) * self.n, pool=2, tag="warm-")
        for i in range(small.pool):
            small.check(i, small.run(i))

    def _paths(self, i):
        base = os.path.join(self.workdir, f"{self.tag}-{i}")
        return base + ".csv", base + ".jsonl"

    def run(self, i):
        spec = self.inputs[i % self.pool]
        out, jsonl = self._paths(i)
        argv = [spec["verb"], "--config", spec["config"], "--out", out, "--jsonl", jsonl, "--seed", str(i)]
        return _run_cli(self.rs.cli, argv)

    def brute_counts(self, i) -> dict:
        """Brute-force (restricted, unrestricted) counts per family and k."""
        key = i % self.pool
        if key not in self._counts:
            spec = self.inputs[key]
            result = {}
            for idx, sets in enumerate(spec["families"]):
                for k in spec["ks"]:
                    if self.rational:
                        pair = tuple(checks.value_count_rational(sets, k, spec["tail"], r) for r in (True, False))
                    else:
                        lead = (1,) * len(sets)
                        pair = tuple(checks.value_count_mod_p(13, sets, k, lead, spec["tail"], r)
                                     for r in (True, False))
                    result[idx, k] = pair
            self._counts[key] = result
        return self._counts[key]

    def check(self, i, output) -> None:
        code, summary = output
        spec = dict(self.inputs[i % self.pool], counts=self.brute_counts(i))
        out, jsonl = self._paths(i)
        checks.check_scan_report(spec, spec["verb"], code, _read_csv(out), _read_jsonl(jsonl), summary)


# ---------- certify: coefficient identities and proof replays ----------

# (p, n, k, sizes) of the replay batch; the sets are seeded per call
REPLAY_SHAPES = (
    (13, 4, 1, (5, 6, 7, 8)),
    (13, 4, 2, (6, 7, 8, 8)),
    (13, 3, 1, (8, 8, 8)),
    (11, 4, 1, (6, 6, 6, 6)),
    (11, 3, 2, (7, 8, 8)),
    (7, 4, 1, (4, 5, 6, 7)),
    (7, 3, 1, (7, 7, 7)),
    (5, 4, 1, (5, 5, 5, 5)),
    (13, 4, 3, (8, 8, 8, 8)),
    (13, 4, 4, (8, 8, 8, 8)),
    (13, 2, 1, (8, 8)),
    (13, 3, 3, (8, 8, 8)),
    (13, 4, 2, (7, 7, 8, 8)),
    (11, 4, 1, (5, 6, 7, 8)),
    (13, 3, 2, (8, 8, 8)),
)


class Certify:
    """Unit calls alternate: an even call is one ``verify-coeff`` sweep over
    n <= 5, sum <= 6; an odd call is one batch of ``proof-replay`` runs with
    the expanded certificate, one per shape in ``REPLAY_SHAPES`` on seeded
    sets.  The batch is sized so that both kinds of call take about as
    long."""

    name = "certify"
    kernel = "python"
    calls_per_round = 2
    coeff_sample = 12

    def __init__(self, rs, seed, workdir, n_max=5, sum_max=6, shapes=REPLAY_SHAPES, pool=32, tag=""):
        self.rs = rs
        self.workdir = workdir
        self.tag = tag + "certify"
        self.n_max, self.sum_max = n_max, sum_max
        self.shapes = shapes
        self.pool = pool
        self.coeff_config = os.path.join(workdir, f"{self.tag}-coeff.json")
        with open(self.coeff_config, "w") as handle:
            json.dump({"n_max": n_max, "sum_max": sum_max}, handle)
        self.inputs = [self._make(seed, i) for i in range(pool)]

    def _make(self, seed, i) -> dict:
        rng = _rng("certify", seed, i)
        if i % 2 == 0:
            return {"sample": [rng.randrange(1 << 30) for _ in range(self.coeff_sample)]}
        replays = []
        for j, (p, n, k, sizes) in enumerate(self.shapes):
            sets = [sorted(rng.sample(range(p), s)) for s in sizes]
            path = os.path.join(self.workdir, f"{self.tag}-{i}-{j}.json")
            with open(path, "w") as handle:
                json.dump({"family": {"field": f"gf({p})", "sets": sets}, "k": k,
                           "expand_certificate": True}, handle)
            replays.append((p, k, sets, path))
        return {"replays": replays}

    def warm_up(self) -> None:
        small = Certify(self.rs, "warm-up", self.workdir, n_max=3, sum_max=3, shapes=self.shapes[-2:],
                        pool=2, tag="warm-")
        for i in range(small.pool):
            small.check(i, small.run(i))

    def _out(self, i, j=None):
        name = f"{self.tag}-coeff-{i}.csv" if j is None else f"{self.tag}-replay-{i}-{j}.json"
        return os.path.join(self.workdir, name)

    def run(self, i):
        if i % 2 == 0:
            argv = ["verify-coeff", "--config", self.coeff_config, "--out", self._out(i)]
            return [_run_cli(self.rs.cli, argv)[0]]
        spec = self.inputs[i % self.pool]
        return [_run_cli(self.rs.cli, ["proof-replay", "--config", path, "--out", self._out(i, j)])[0]
                for j, (_p, _k, _sets, path) in enumerate(spec["replays"])]

    def check(self, i, codes) -> None:
        spec = self.inputs[i % self.pool]
        if i % 2 == 0:
            table = _read_csv(self._out(i))
            checks.check_coefficient_table(codes[0], table, self.n_max, self.sum_max, spec["sample"])
            return
        for j, (p, k, sets, _path) in enumerate(spec["replays"]):
            with open(self._out(i, j)) as handle:
                payload = json.load(handle)
            checks.check_replay(codes[j], payload, p, sets, k)


WORKLOADS = {
    "sweep": lambda rs, seed, workdir: Sweep(rs, seed, workdir),
    "scan-gf13": lambda rs, seed, workdir: Scan(rs, seed, workdir),
    "scan-rational": lambda rs, seed, workdir: Scan(rs, seed, workdir, rational=True),
    "certify": lambda rs, seed, workdir: Certify(rs, seed, workdir),
}
