"""Experiment runner: verification sweeps, tightness scans, coefficient
identity checks, and proof replays, with deterministic CSV/JSON reports.

Each verb reads its summary line and exit code off its report rows: a
row judges itself against its bound, a `verify-coeff` cell has its status.

Exit codes: 0 all assertions hold; 1 usage or configuration error;
2 theorem assertion violated; 3 conjecture violation observed (recorded,
artifacts saved).  2 wins over 3 when both occur.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import itertools
import json
import random
import sys
import time
from collections import Counter
from dataclasses import dataclass, field as dataclass_field
from math import comb, prod

from .bounds import BOUNDS, roots_model_cardinality
from .coeff import _coefficient_sweep, proof_replay
from .enumeration import (
    DEFAULT_TUPLE_GUARD,
    MultiplicityProfile,
    SetFamily,
    _check_vector_guard,
    _config_field,
    family_from_json,
    multiplicity_value_set,
)
from .errors import (
    ConfigError,
    HypothesisViolated,
    Infeasible,
    InternalInvariantBroken,
    RestrictedSumsError,
    SearchSpaceTooLarge,
)
from .poly import (
    DEFAULT_TERM_GUARD,
    PowerSumForm,
    SparsePoly,
    _field_form,
    _field_leading,
    parse_poly,
)
from .sweeps import _value_counts

THEOREM_BOUNDS = tuple(name for name, bound in BOUNDS.items() if not bound.conjectural)

# (CSV header, ReportRow attribute), in report order
_COLUMNS = (
    ("field", "field"),
    ("p(F)", "char"),
    ("n", "n"),
    ("k", "k"),
    ("sizes", "sizes"),
    ("bound_name", "bound_name"),
    ("bound_value", "bound_value"),
    ("actual_cardinality", "actual_cardinality"),
    ("hypotheses_ok", "hypotheses_ok"),
    ("tight", "tight"),
    ("seed", "seed"),
    ("elapsed_ms", "elapsed_ms"),
)
CSV_HEADER = [header for header, _ in _COLUMNS]

COEFF_HEADER = ["n", "k", "q", "N", "closed_form", "oracle", "status"]


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ";".join(map(str, value))
    return str(value)


@dataclass
class ReportRow:
    field: str
    char: str
    n: int
    k: int
    sizes: tuple
    bound_name: str
    bound_value: int | None  # None when a hypothesis of the bound fails
    actual_cardinality: int | None  # None when the count hit a guard
    seed: str
    elapsed_ms: str = ""
    hypotheses_ok: bool = dataclass_field(init=False)
    tight: bool | None = dataclass_field(init=False)
    violated: bool = dataclass_field(init=False)  # carried in JSONL; decides the exit code

    def __post_init__(self):
        # the row's verdict, read off its bound and its count: below a floor
        # violates it, and ex41's formula is an exact count, so any miss does
        self.hypotheses_ok = self.bound_value is not None
        counted = self.hypotheses_ok and self.actual_cardinality is not None
        self.tight = self.actual_cardinality == self.bound_value if counted else None
        self.violated = counted and not self.tight and (
            self.bound_name == "ex41" or self.actual_cardinality < self.bound_value
        )

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
        return [_cell(getattr(self, attr)) for _, attr in _COLUMNS]

    def json_dict(self) -> dict:
        record = {header: getattr(self, attr) for header, attr in _COLUMNS}
        record["violated"] = self.violated
        return record


def _exit_code(rows) -> int:
    """2 if a theorem row is violated, else 3 if a conjecture row is, else 0."""
    conjectural = {r.bound_name in BOUNDS and BOUNDS[r.bound_name].conjectural for r in rows if r.violated}
    return 2 if False in conjectural else 3 if conjectural else 0


def _open_report(path: str | None):
    """The report file, or stdout (left open) when no path."""
    return open(path, "w", newline="") if path else contextlib.nullcontext(sys.stdout)


def _write_table(path: str | None, header: list, rows: list) -> None:
    """CSV with a fixed header and LF line endings; stdout when no path."""
    with _open_report(path) as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


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


def _check_keys(obj, name: str, required: set, optional: set) -> dict:
    """``obj`` if it is a JSON object whose keys are all in ``required`` or
    ``optional`` and include every key of ``required``."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{name} must be a JSON object")
    unknown = set(obj) - required - optional
    if unknown:
        raise ConfigError(f"unknown {name} keys: {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ConfigError(f"missing {name} keys: {sorted(missing)}")
    return obj


def _load_config(path: str, required: set, optional: set) -> dict:
    try:
        with open(path) as handle:
            cfg = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return _check_keys(cfg, "config", required, optional)


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
    optional = {"sizes", "equal_sets"} | ({"count"} if source == "sample" else set())
    spec = _check_keys(cfg[source], f'"{source}"', set(), optional)
    equal_sets = spec.get("equal_sets", False)
    if not isinstance(equal_sets, bool):
        raise ConfigError('"equal_sets" must be a boolean')
    vectors = _size_vectors(spec.get("sizes"))
    for v in vectors:
        if any(s > p for s in v):
            raise ConfigError(f"size vector {list(v)} exceeds the field size {p}")
        if equal_sets and len(set(v)) != 1:
            raise ConfigError(f'"equal_sets" needs equal sizes, got {list(v)}')
    # the sizes of the sets drawn for each vector: one set, repeated, for equal sets
    drawn = [v[:1] if equal_sets else v for v in vectors]
    if source == "sweep":
        total = sum(prod(comb(p, s) for s in sizes) for sizes in drawn)
        if total > 100_000:
            raise ConfigError(f'sweep spans {total} families; use "sample" instead')
    else:
        count = _require_int(spec, "count", 1)
    families = []
    for v, sizes in zip(vectors, drawn):
        if source == "sweep":
            draws = itertools.product(*(itertools.combinations(range(p), s) for s in sizes))
        else:
            draws = ([rng.sample(range(p), s) for s in sizes] for _ in range(count))
        for sets in draws:
            sets = [sorted(s) for s in sets]
            families.append(SetFamily.from_elements(field, sets * len(v) if equal_sets else sets))
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
    try:
        _field_leading(field, n, raw)
    except HypothesisViolated as exc:
        raise ConfigError(str(exc)) from exc
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


# ---------- family-scan rows (verify-bounds and tightness) ----------


def _scan_families(args, cfg, allowed_bounds) -> list:
    """Shared engine: one row per (k, family, bound)."""
    field = _config_field(cfg.get("field"))
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

    variants = [flag for flag in (True, False) if any(BOUNDS[b].restricted == flag for b in bounds)]

    rows = []
    for k in ks:
        form = _field_form(field, n, PowerSumForm(k, leading, tail))
        for fam in families:
            start = time.monotonic()
            try:
                counts = dict(zip(variants, _value_counts(fam, form, variants, args.guard_tuples)))
            except SearchSpaceTooLarge:
                counts = {}  # guard violations are recorded per-row, never fatal
            elapsed = str(int((time.monotonic() - start) * 1000)) if args.timings else ""
            for name in bounds:
                rows.append(
                    ReportRow(
                        field=str(field),
                        char=char_str,
                        n=fam.n,
                        k=k,
                        sizes=fam.sizes,
                        bound_name=name,
                        bound_value=BOUNDS[name].evaluate(fam, form),
                        actual_cardinality=counts.get(BOUNDS[name].restricted),
                        seed=seed_str,
                        elapsed_ms=elapsed,
                    )
                )
    return rows


# ---------- commands ----------


def _skip_note(rows) -> str:
    # a row has no cardinality only when its family hit the tuple guard
    skipped = sum(1 for r in rows if r.actual_cardinality is None)
    return f"{skipped} skipped by the tuple guard, " if skipped else ""


def _checked(rows) -> int:
    """Rows whose bound applied and whose cardinality was counted."""
    return sum(1 for r in rows if r.hypotheses_ok and r.actual_cardinality is not None)


def cmd_verify_bounds(args) -> int:
    cfg = _load_config(
        args.config,
        required={"field", "k", "bounds"},
        optional={"families", "sweep", "sample", "leading", "tail"},
    )
    rows = _scan_families(args, cfg, THEOREM_BOUNDS)
    _emit_rows(args, rows)
    checked = _checked(rows)
    code = _exit_code(rows)
    if code:
        verdict = "VIOLATIONS FOUND"
    else:
        verdict = "all bounds hold" if checked else "nothing checked"
    print(
        f"verify-bounds: {len(rows)} rows, {checked} checked, {_skip_note(rows)}{verdict}",
        file=sys.stderr,
    )
    return code


def cmd_tightness(args) -> int:
    cfg = _load_config(
        args.config,
        required=set(),
        optional={"field", "k", "bounds", "families", "sweep", "sample", "leading", "tail", "profiles"},
    )
    if ("profiles" in cfg) == any(key in cfg for key in ("field", "k", "bounds")):
        raise ConfigError('give either "profiles" or a family scan (field/k/bounds/...), not both')
    if "profiles" in cfg:
        rows = _profile_rows(cfg["profiles"], args)
    else:
        rows = _scan_families(args, cfg, BOUNDS)
    _emit_rows(args, rows)
    tight_count = sum(1 for r in rows if r.tight)
    violations = sum(1 for r in rows if r.violated)
    # a scan that compared no row with its bound could see no violation
    verdict = f"{violations} violations" if _checked(rows) else "nothing checked"
    print(
        f"tightness: {len(rows)} rows, {tight_count} tight, {_skip_note(rows)}{verdict}",
        file=sys.stderr,
    )
    return _exit_code(rows)


def _profile_rows(spec, args) -> list:
    spec = _check_keys(spec, '"profiles"', set(), {"k_max", "q_max"})
    k_max = _require_int(spec, "k_max", 1)
    q_max = _require_int(spec, "q_max", 0)
    return [
        _ex41_row(MultiplicityProfile(k=k, q=q, r=r, n=n), str(args.seed), args.guard_tuples, args.timings)
        for k in range(1, k_max + 1)
        for q in range(q_max + 1)
        for r in range(k)
        for n in range(1, k * q + r + 1)
    ]


def _ex41_row(profile: MultiplicityProfile, seed_str: str, guard_tuples: int, timings=False) -> ReportRow:
    """The sharpness model's formula against its enumerated value set, left
    uncounted when its multiplicity vectors outnumber ``guard_tuples``."""
    n, k, q, r = profile.n, profile.k, profile.q, profile.r
    start = time.monotonic()
    try:
        _check_vector_guard(profile, guard_tuples)
        actual = multiplicity_value_set(profile).cardinality
    except SearchSpaceTooLarge:
        actual = None
    return ReportRow(
        field="integers",
        char="inf",
        n=n,
        k=k,
        sizes=(k * q + r,),
        bound_name="ex41",
        bound_value=roots_model_cardinality(n, k, q, r).value,
        actual_cardinality=actual,
        seed=seed_str,
        elapsed_ms=str(int((time.monotonic() - start) * 1000)) if timings else "",
    )


def cmd_verify_coeff(args) -> int:
    cfg = _load_config(args.config, required={"n_max", "sum_max"}, optional={"k_max"})
    n_max = _require_int(cfg, "n_max", 1)
    sum_max = _require_int(cfg, "sum_max", 0)
    k_cap = _require_int(cfg, "k_max", 1) if "k_max" in cfg else None
    cells = []
    labels = {}  # each (n, N)'s composition labels, made once for every k
    for n, k, total, qs, closed_forms, oracles in _coefficient_sweep(n_max, sum_max, k_cap, args.guard_terms):
        if (n, total) not in labels:
            labels[n, total] = [";".join(map(str, q)) for q in qs]
        for label, closed, oracle in zip(labels[n, total], closed_forms, oracles):
            if oracle is None:
                cells.append([n, k, label, total, str(closed), "", "skipped"])
            else:
                status = "ok" if closed == oracle else "mismatch"
                cells.append([n, k, label, total, str(closed), str(oracle), status])
    _write_table(args.out, COEFF_HEADER, cells)
    if args.jsonl:
        _write_jsonl(
            args.jsonl,
            [dict(zip(COEFF_HEADER, [str(c) for c in row])) for row in cells],
        )
    status = Counter(cell[-1] for cell in cells)
    print(
        f"verify-coeff: {status['ok'] + status['mismatch']} identities checked, "
        f"{status['mismatch']} mismatches, {status['skipped']} skipped",
        file=sys.stderr,
    )
    return 2 if status["mismatch"] else 0


def cmd_example41(args) -> int:
    cfg = _load_config(args.config, required={"n", "k", "q", "r"}, optional=set())
    n, k, q, r = (_require_int(cfg, key, 0) for key in ("n", "k", "q", "r"))
    try:
        profile = MultiplicityProfile(k=k, q=q, r=r, n=n)
    except (HypothesisViolated, Infeasible) as exc:
        raise ConfigError(str(exc)) from exc
    _check_vector_guard(profile, args.guard_tuples)
    row = _ex41_row(profile, str(args.seed), args.guard_tuples)
    _emit_rows(args, [row])
    print(f"example41: formula {row.bound_value}, enumerated {row.actual_cardinality}", file=sys.stderr)
    return _exit_code([row])


def cmd_proof_replay(args) -> int:
    cfg = _load_config(
        args.config,
        required={"family", "k"},
        optional={"tail", "witness", "expand_certificate"},
    )
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
    record = replay.to_json_dict()
    with _open_report(args.out) as out:
        out.write(json.dumps(record, sort_keys=True, indent=2) + "\n")
    if args.jsonl:
        _write_jsonl(args.jsonl, [record])
    skipped = ", witness skipped by the tuple guard" if witness and replay.witness is None else ""
    print(
        f"proof-replay: N={replay.N}, h={replay.h}, h in {family.field} is "
        f"{replay.h_element!r} (nonzero){skipped}",
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


# Options a verb reads besides --config, --out and --jsonl, which every verb takes.
_OPTIONS = {
    "--seed": {"type": int, "default": 0, "help": "seed recorded in reports (default 0)"},
    "--guard-tuples": {
        "type": int,
        "default": DEFAULT_TUPLE_GUARD,
        "help": "enumeration guard: max tuples per family, or multiplicity vectors per profile",
    },
    "--guard-terms": {
        "type": int,
        "default": DEFAULT_TERM_GUARD,
        "help": "expansion guard: max distinct monomials formed while multiplying, cancelled ones included",
    },
    "--timings": {
        "action": "store_true",
        "help": "fill elapsed_ms (breaks byte-determinism of reports)",
    },
}

# verb: (handler, help, the options of _OPTIONS it reads)
_VERBS = {
    "verify-bounds": (
        cmd_verify_bounds,
        "enumerate families and assert theorem bounds",
        ("--seed", "--guard-tuples", "--timings"),
    ),
    "verify-coeff": (
        cmd_verify_coeff,
        "closed-form vs expansion coefficient sweep",
        ("--guard-terms",),
    ),
    "tightness": (
        cmd_tightness,
        "scan for tight instances and conjecture violations",
        ("--seed", "--guard-tuples", "--timings"),
    ),
    "example41": (
        cmd_example41,
        "check the sharpness model formula on one profile",
        ("--seed", "--guard-tuples"),
    ),
    "proof-replay": (
        cmd_proof_replay,
        "replay the constructive argument on one family",
        ("--guard-tuples", "--guard-terms"),
    ),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use."""
    parser = _Parser(prog="restrictedsums", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    for verb, (handler, help_text, options) in _VERBS.items():
        sub = subs.add_parser(verb, help=help_text)
        sub.add_argument("--config", required=True, help="JSON config path")
        sub.add_argument("--out", help="report path: CSV, or the JSON replay for proof-replay (default: stdout)")
        sub.add_argument("--jsonl", help="JSON-lines mirror output path")
        for option in options:
            sub.add_argument(option, **_OPTIONS[option])
        sub.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
