"""Experiment runner: verification sweeps, tightness scans, coefficient
identity checks, and proof replays, with deterministic CSV/JSON reports.

Exit codes: 0 all assertions hold; 1 usage or configuration error;
2 theorem assertion violated; 3 conjecture violation observed (recorded,
artifacts saved).  2 wins over 3 when both occur.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import random
import sys
import time
from dataclasses import dataclass
from math import comb, prod

from .bounds import BOUNDS, roots_model_cardinality
from .coeff import coefficient_formula, proof_replay, target_monomial
from .enumeration import (
    DEFAULT_TUPLE_GUARD,
    MultiplicityProfile,
    SetFamily,
    family_from_json,
    multiplicity_value_set,
    restricted_value_set,
    unrestricted_value_set,
)
from .errors import (
    ConfigError,
    ExpansionTooLarge,
    Infeasible,
    InternalInvariantBroken,
    RestrictedSumsError,
    SearchSpaceTooLarge,
)
from .fields import parse_field
from .poly import (
    DEFAULT_TERM_GUARD,
    PowerSumForm,
    SparsePoly,
    _compositions,
    parse_poly,
    power_sum_pow,
    vandermonde,
)

THEOREM_BOUNDS = tuple(name for name, bound in BOUNDS.items() if not bound.conjectural)

CSV_HEADER = [
    "field",
    "p(F)",
    "n",
    "k",
    "sizes",
    "bound_name",
    "bound_value",
    "actual_cardinality",
    "hypotheses_ok",
    "tight",
    "seed",
    "elapsed_ms",
]

COEFF_HEADER = ["n", "k", "q", "N", "closed_form", "oracle", "status"]


@dataclass
class ReportRow:
    field: str
    char: str
    n: int
    k: int
    sizes: tuple
    bound_name: str
    bound_value: int | None
    actual_cardinality: int | None
    hypotheses_ok: bool
    tight: bool | None
    seed: str
    elapsed_ms: str = ""
    violated: bool = False  # conjecture rows only; carried in JSONL, drives exit 3

    def sort_key(self):
        return (
            self.field,
            self.n,
            self.k,
            self.sizes,
            self.bound_name,
            "" if self.bound_value is None else str(self.bound_value),
        )

    def csv_cells(self) -> list:
        return [
            self.field,
            self.char,
            str(self.n),
            str(self.k),
            ";".join(str(s) for s in self.sizes),
            self.bound_name,
            "" if self.bound_value is None else str(self.bound_value),
            "" if self.actual_cardinality is None else str(self.actual_cardinality),
            "true" if self.hypotheses_ok else "false",
            "" if self.tight is None else ("true" if self.tight else "false"),
            self.seed,
            self.elapsed_ms,
        ]

    def json_dict(self) -> dict:
        return {
            "field": self.field,
            "p(F)": self.char,
            "n": self.n,
            "k": self.k,
            "sizes": list(self.sizes),
            "bound_name": self.bound_name,
            "bound_value": self.bound_value,
            "actual_cardinality": self.actual_cardinality,
            "hypotheses_ok": self.hypotheses_ok,
            "tight": self.tight,
            "seed": self.seed,
            "elapsed_ms": self.elapsed_ms,
            "violated": self.violated,
        }


def _write_table(path: str | None, header: list, rows: list) -> None:
    """CSV with a fixed header and LF line endings; stdout when no path."""
    out = open(path, "w", newline="") if path else sys.stdout
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if path:
            out.close()


def _write_jsonl(path: str, dicts: list) -> None:
    with open(path, "w") as out:
        for d in dicts:
            out.write(json.dumps(d, sort_keys=True))
            out.write("\n")


def _emit_rows(args, rows: list) -> None:
    rows = sorted(rows, key=lambda r: r.sort_key())
    _write_table(args.out, CSV_HEADER, [r.csv_cells() for r in rows])
    if args.jsonl:
        _write_jsonl(args.jsonl, [r.json_dict() for r in rows])


# ---------- config plumbing ----------


def _load_config(path: str, required: set, optional: set) -> dict:
    try:
        with open(path) as handle:
            cfg = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(cfg) - required - optional
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = required - set(cfg)
    if missing:
        raise ConfigError(f"missing config keys: {sorted(missing)}")
    return cfg


def _require_int(cfg: dict, key: str, minimum: int) -> int:
    v = cfg.get(key)
    if not isinstance(v, int) or isinstance(v, bool) or v < minimum:
        raise ConfigError(f'"{key}" must be an integer >= {minimum}, got {v!r}')
    return v


def _k_range(raw) -> list:
    if isinstance(raw, int) and not isinstance(raw, bool):
        if raw < 1:
            raise ConfigError(f'"k" must be >= 1, got {raw}')
        return [raw]
    if (
        isinstance(raw, list)
        and len(raw) == 2
        and all(isinstance(x, int) and not isinstance(x, bool) for x in raw)
        and 1 <= raw[0] <= raw[1]
    ):
        return list(range(raw[0], raw[1] + 1))
    raise ConfigError(f'"k" must be an integer or [lo, hi] with 1 <= lo <= hi, got {raw!r}')


def _size_vectors(raw) -> list:
    if (
        not isinstance(raw, list)
        or not raw
        or not all(isinstance(v, list) and v for v in raw)
    ):
        raise ConfigError('"sizes" must be a nonempty list of nonempty size vectors')
    out = []
    for v in raw:
        for s in v:
            if not isinstance(s, int) or isinstance(s, bool) or s < 1:
                raise ConfigError(f"sizes must be positive integers, got {s!r}")
        out.append(tuple(v))
    if len({len(v) for v in out}) != 1:
        raise ConfigError("all size vectors in one config must share a length")
    return out


def _generate_families(field, cfg: dict, rng: random.Random) -> list:
    """Families from exactly one of "families", "sweep", "sample"."""
    sources = [key for key in ("families", "sweep", "sample") if key in cfg]
    if len(sources) != 1:
        raise ConfigError('give exactly one of "families", "sweep", "sample"')
    source = sources[0]
    if source == "families":
        raw = cfg["families"]
        if not isinstance(raw, list) or not raw:
            raise ConfigError('"families" must be a nonempty list of families')
        families = []
        for sets in raw:
            if not isinstance(sets, list) or not all(isinstance(s, list) for s in sets):
                raise ConfigError("each family must be a list of element lists")
            try:
                families.append(SetFamily.from_elements(field, sets))
            except (ValueError, TypeError) as exc:
                raise ConfigError(str(exc)) from exc
        if len({fam.n for fam in families}) != 1:
            raise ConfigError("all families in one config must share n")
        return families
    if not field.is_prime_field:
        raise ConfigError(f'"{source}" generation needs a prime field; list families explicitly')
    p = field.p
    spec = cfg[source]
    if not isinstance(spec, dict):
        raise ConfigError(f'"{source}" must be an object')
    allowed = {"sizes", "equal_sets"} | ({"count"} if source == "sample" else set())
    unknown = set(spec) - allowed
    if unknown:
        raise ConfigError(f'unknown "{source}" keys: {sorted(unknown)}')
    equal_sets = spec.get("equal_sets", False)
    if not isinstance(equal_sets, bool):
        raise ConfigError('"equal_sets" must be a boolean')
    vectors = _size_vectors(spec.get("sizes"))
    for v in vectors:
        if any(s > p for s in v):
            raise ConfigError(f"size vector {list(v)} exceeds the field size {p}")
        if equal_sets and len(set(v)) != 1:
            raise ConfigError(f'"equal_sets" needs equal sizes, got {list(v)}')
    families = []
    if source == "sweep":
        total = sum(
            comb(p, v[0]) if equal_sets else prod(comb(p, s) for s in v) for v in vectors
        )
        if total > 100_000:
            raise ConfigError(f'sweep spans {total} families; use "sample" instead')
        for v in vectors:
            if equal_sets:
                for subset in itertools.combinations(range(p), v[0]):
                    families.append(
                        SetFamily.from_elements(field, [list(subset)] * len(v))
                    )
                continue
            pools = [list(itertools.combinations(range(p), s)) for s in v]
            for sets in itertools.product(*pools):
                families.append(SetFamily.from_elements(field, [list(s) for s in sets]))
        return families
    count = _require_int(spec, "count", 1)
    for v in vectors:
        for _ in range(count):
            if equal_sets:
                sets = [sorted(rng.sample(range(p), v[0]))] * len(v)
            else:
                sets = [sorted(rng.sample(range(p), s)) for s in v]
            families.append(SetFamily.from_elements(field, sets))
    return families


def _parse_leading(cfg: dict, field, n: int) -> tuple:
    raw = cfg.get("leading")
    if raw is None:
        return (1,) * n
    if (
        not isinstance(raw, list)
        or len(raw) != n
        or not all(isinstance(a, int) and not isinstance(a, bool) for a in raw)
    ):
        raise ConfigError(f'"leading" must be a list of {n} integers')
    for a in raw:
        if field.embed(a).is_zero:
            raise ConfigError(f"leading coefficient {a} vanishes in {field}")
    return tuple(raw)


def _parse_tail(cfg: dict, n: int, k_min: int) -> SparsePoly:
    raw = cfg.get("tail")
    if raw is None:
        return SparsePoly.zero(n)
    if not isinstance(raw, str):
        raise ConfigError('"tail" must be a polynomial string')
    try:
        tail = parse_poly(raw, nvars=n)
    except (ValueError, RestrictedSumsError) as exc:
        raise ConfigError(f"bad tail polynomial: {exc}") from exc
    if tail.degree >= k_min:
        raise ConfigError(f"tail degree {tail.degree} must be < k = {k_min}")
    return tail


def _parse_field(cfg: dict):
    try:
        return parse_field(cfg["field"])
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


# ---------- family-scan rows (verify-bounds and tightness) ----------


def _scan_families(args, cfg, allowed_bounds) -> tuple:
    """Shared engine: returns (rows, theorem_violation, conjecture_violation)."""
    field = _parse_field(cfg)
    bounds = cfg.get("bounds")
    if (
        not isinstance(bounds, list)
        or not bounds
        or not all(isinstance(b, str) for b in bounds)
    ):
        raise ConfigError('"bounds" must be a nonempty list of bound names')
    bad = [b for b in bounds if b not in allowed_bounds]
    if bad:
        raise ConfigError(f"bound names {bad} not allowed here (use {list(allowed_bounds)})")
    ks = _k_range(cfg.get("k"))
    rng = random.Random(args.seed)
    families = _generate_families(field, cfg, rng)
    n = families[0].n
    leading = _parse_leading(cfg, field, n)
    tail = _parse_tail(cfg, n, min(ks))
    char_str = repr(field.characteristic)
    seed_str = str(args.seed)

    needs_r = any(BOUNDS[b].restricted for b in bounds)
    needs_u = any(not BOUNDS[b].restricted for b in bounds)

    rows = []
    theorem_bad = False
    conjecture_bad = False
    for k in ks:
        f = PowerSumForm(k, leading, tail)
        for fam in families:
            start = time.monotonic()
            actual_r = actual_u = None
            try:
                if needs_r:
                    actual_r = restricted_value_set(fam, f, guard_tuples=args.guard_tuples).cardinality
                if needs_u:
                    actual_u = unrestricted_value_set(fam, f, guard_tuples=args.guard_tuples).cardinality
            except SearchSpaceTooLarge:
                pass  # guard violations are recorded per-row, never fatal
            elapsed = str(int((time.monotonic() - start) * 1000)) if args.timings else ""
            for name in bounds:
                bound = BOUNDS[name]
                value = bound.evaluate(fam, k, leading)
                actual = actual_r if bound.restricted else actual_u
                tight = None
                violated = False
                if value is not None and actual is not None:
                    tight = actual == value
                    if actual < value:
                        violated = True
                        if bound.conjectural:
                            conjecture_bad = True
                        else:
                            theorem_bad = True
                rows.append(
                    ReportRow(
                        field=str(field),
                        char=char_str,
                        n=fam.n,
                        k=k,
                        sizes=fam.sizes,
                        bound_name=name,
                        bound_value=value,
                        actual_cardinality=actual,
                        hypotheses_ok=value is not None,
                        tight=tight,
                        seed=seed_str,
                        elapsed_ms=elapsed,
                        violated=violated,
                    )
                )
    return rows, theorem_bad, conjecture_bad


# ---------- commands ----------


def _skip_note(rows) -> str:
    # a row has no cardinality only when its family hit the tuple guard
    skipped = sum(1 for r in rows if r.actual_cardinality is None)
    return f"{skipped} skipped by the tuple guard, " if skipped else ""


def cmd_verify_bounds(args) -> int:
    cfg = _load_config(
        args.config,
        required={"field", "k", "bounds"},
        optional={"families", "sweep", "sample", "leading", "tail"},
    )
    rows, theorem_bad, _ = _scan_families(args, cfg, THEOREM_BOUNDS)
    _emit_rows(args, rows)
    checked = sum(1 for r in rows if r.hypotheses_ok and r.actual_cardinality is not None)
    if theorem_bad:
        verdict = "VIOLATIONS FOUND"
    else:
        verdict = "all bounds hold" if checked else "nothing checked"
    print(
        f"verify-bounds: {len(rows)} rows, {checked} checked, {_skip_note(rows)}{verdict}",
        file=sys.stderr,
    )
    return 2 if theorem_bad else 0


def cmd_tightness(args) -> int:
    cfg = _load_config(
        args.config,
        required=set(),
        optional={"field", "k", "bounds", "families", "sweep", "sample", "leading", "tail", "profiles"},
    )
    if ("profiles" in cfg) == any(key in cfg for key in ("field", "k", "bounds")):
        raise ConfigError('give either "profiles" or a family scan (field/k/bounds/...), not both')
    theorem_bad = conjecture_bad = False
    if "profiles" in cfg:
        rows = _profile_rows(cfg["profiles"], str(args.seed))
        theorem_bad = any(r.violated for r in rows)
    else:
        rows, theorem_bad, conjecture_bad = _scan_families(args, cfg, BOUNDS)
    _emit_rows(args, rows)
    tight_count = sum(1 for r in rows if r.tight)
    print(
        f"tightness: {len(rows)} rows, {tight_count} tight, {_skip_note(rows)}"
        f"{sum(1 for r in rows if r.violated)} violations",
        file=sys.stderr,
    )
    if theorem_bad:
        return 2
    return 3 if conjecture_bad else 0


def _profile_rows(spec, seed_str: str) -> list:
    if not isinstance(spec, dict):
        raise ConfigError('"profiles" must be an object')
    unknown = set(spec) - {"k_max", "q_max"}
    if unknown:
        raise ConfigError(f'unknown "profiles" keys: {sorted(unknown)}')
    k_max = _require_int(spec, "k_max", 1)
    q_max = _require_int(spec, "q_max", 0)
    return [
        _ex41_row(n, k, q, r, seed_str)
        for k in range(1, k_max + 1)
        for q in range(q_max + 1)
        for r in range(k)
        for n in range(1, k * q + r + 1)
    ]


def _ex41_row(n: int, k: int, q: int, r: int, seed_str: str) -> ReportRow:
    """The sharpness model's formula against its enumerated value set."""
    value = roots_model_cardinality(n, k, q, r).value
    actual = multiplicity_value_set(MultiplicityProfile(k=k, q=q, r=r, n=n)).cardinality
    return ReportRow(
        field="integers",
        char="inf",
        n=n,
        k=k,
        sizes=(k * q + r,),
        bound_name="ex41",
        bound_value=value,
        actual_cardinality=actual,
        hypotheses_ok=True,
        tight=actual == value,
        seed=seed_str,
        violated=actual != value,
    )


def cmd_verify_coeff(args) -> int:
    cfg = _load_config(args.config, required={"n_max", "sum_max"}, optional={"k_max"})
    n_max = _require_int(cfg, "n_max", 1)
    sum_max = _require_int(cfg, "sum_max", 0)
    k_cap = _require_int(cfg, "k_max", 1) if "k_max" in cfg else None
    cells = []
    mismatches = 0
    skipped = 0
    checked = 0
    for n in range(1, n_max + 1):
        for k in range(1, min(n, k_cap) + 1 if k_cap else n + 1):
            for total in range(sum_max + 1):
                try:
                    product = power_sum_pow(n, k, total, max_terms=args.guard_terms).mul(
                        vandermonde(n, max_terms=args.guard_terms),
                        max_terms=args.guard_terms,
                    )
                except ExpansionTooLarge:
                    product = None
                for q in _compositions(total, n):
                    closed = coefficient_formula(q, k)
                    if product is None:
                        skipped += 1
                        cells.append([n, k, ";".join(map(str, q)), total, str(closed), "", "skipped"])
                        continue
                    oracle = product.coefficient_of(target_monomial(q, k))
                    checked += 1
                    status = "ok" if closed == oracle else "mismatch"
                    if status == "mismatch":
                        mismatches += 1
                    cells.append(
                        [n, k, ";".join(map(str, q)), total, str(closed), str(oracle), status]
                    )
    _write_table(args.out, COEFF_HEADER, cells)
    if args.jsonl:
        _write_jsonl(
            args.jsonl,
            [dict(zip(COEFF_HEADER, [str(c) for c in row])) for row in cells],
        )
    print(
        f"verify-coeff: {checked} identities checked, {mismatches} mismatches, {skipped} skipped",
        file=sys.stderr,
    )
    return 2 if mismatches else 0


def cmd_example41(args) -> int:
    if args.config:
        cfg = _load_config(args.config, required={"n", "k", "q", "r"}, optional=set())
        n, k, q, r = (_require_int(cfg, key, 0) for key in ("n", "k", "q", "r"))
    else:
        if None in (args.n, args.k, args.q, args.r):
            raise ConfigError("example41 needs --config or all of --n --k --q --r")
        n, k, q, r = args.n, args.k, args.q, args.r
    try:
        row = _ex41_row(n, k, q, r, str(args.seed))
    except (Infeasible, RestrictedSumsError) as exc:
        raise ConfigError(str(exc)) from exc
    _emit_rows(args, [row])
    print(f"example41: formula {row.bound_value}, enumerated {row.actual_cardinality}", file=sys.stderr)
    return 2 if row.violated else 0


def cmd_proof_replay(args) -> int:
    cfg = _load_config(
        args.config,
        required={"family", "k"},
        optional={"tail", "witness", "expand_certificate"},
    )
    if not isinstance(cfg["family"], dict):
        raise ConfigError('"family" must be an object with "field" and "sets"')
    family = family_from_json(cfg["family"])
    k = _require_int(cfg, "k", 1)
    witness = cfg.get("witness", True)
    expand = cfg.get("expand_certificate", False)
    if not isinstance(witness, bool) or not isinstance(expand, bool):
        raise ConfigError('"witness" and "expand_certificate" must be booleans')
    tail = _parse_tail(cfg, family.n, k)
    f = PowerSumForm.unit(family.n, k, tail)
    replay = proof_replay(
        family,
        k,
        f=f,
        witness=witness,
        expand_certificate=expand,
        guard_tuples=args.guard_tuples,
        guard_terms=args.guard_terms,
    )
    payload = json.dumps(replay.to_json_dict(), sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(payload)
    else:
        sys.stdout.write(payload)
    print(
        f"proof-replay: N={replay.N}, h={replay.h}, h in {family.field} is "
        f"{replay.h_element!r} (nonzero)",
        file=sys.stderr,
    )
    return 0


# ---------- argument parsing ----------


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; this artifact reserves 2 for
    theorem violations, so usage errors exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(sub, config_required=True):
    if config_required:
        sub.add_argument("--config", required=True, help="JSON config path")
    else:
        sub.add_argument("--config", help="JSON config path")
    sub.add_argument("--out", help="CSV output path (default: stdout)")
    sub.add_argument("--jsonl", help="JSON-lines mirror output path")
    sub.add_argument("--seed", type=int, default=0, help="seed recorded in reports (default 0)")
    sub.add_argument(
        "--guard-tuples",
        type=int,
        default=DEFAULT_TUPLE_GUARD,
        help="enumeration guard: max tuples per family",
    )
    sub.add_argument(
        "--guard-terms",
        type=int,
        default=DEFAULT_TERM_GUARD,
        help="expansion guard: max polynomial terms",
    )
    sub.add_argument(
        "--timings",
        action="store_true",
        help="fill elapsed_ms (breaks byte-determinism of reports)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="restrictedsums", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    vb = subs.add_parser("verify-bounds", help="enumerate families and assert theorem bounds")
    _add_common(vb)
    vb.set_defaults(func=cmd_verify_bounds)

    vc = subs.add_parser("verify-coeff", help="closed-form vs expansion coefficient sweep")
    _add_common(vc)
    vc.set_defaults(func=cmd_verify_coeff)

    tg = subs.add_parser("tightness", help="scan for tight instances and conjecture violations")
    _add_common(tg)
    tg.set_defaults(func=cmd_tightness)

    ex = subs.add_parser("example41", help="check the sharpness model formula on one profile")
    _add_common(ex, config_required=False)
    for name in ("n", "k", "q", "r"):
        ex.add_argument(f"--{name}", type=int, default=None)
    ex.set_defaults(func=cmd_example41)

    pr = subs.add_parser("proof-replay", help="replay the constructive argument on one family")
    _add_common(pr)
    pr.set_defaults(func=cmd_proof_replay)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except InternalInvariantBroken as exc:
        print(f"theorem assertion violated: {exc}", file=sys.stderr)
        return 2
    except RestrictedSumsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
