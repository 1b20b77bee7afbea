"""Command-line interface: configs, report formats, determinism, exit codes."""

import argparse
import functools
import hashlib
import itertools
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from restrictedsums import (
    DEFAULT_TUPLE_GUARD,
    BoundResult,
    ExpansionTooLarge,
    InternalInvariantBroken,
    MultiplicityProfile,
    PowerSumForm,
    SetFamily,
    SparsePoly,
    bounds as bounds_module,
    coefficient_by_expansion,
    coefficient_formula,
    parse_field,
    parse_poly,
    power_sum_pow,
    restricted_value_set,
    target_monomial,
    unrestricted_value_set,
    vandermonde,
)
from restrictedsums import cli, sweeps

HEADER_LINE = "field,p(F),n,k,sizes,bound_name,bound_value,actual_cardinality,hypotheses_ok,tight,seed,elapsed_ms"


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def verify_bounds_config():
    return {
        "field": "gf(7)",
        "k": [1, 2],
        "bounds": ["thm12", "thm13", "thm11u", "thm11r", "anr", "dsh"],
        "families": [
            [[0, 1, 2], [0, 1, 2, 3]],
            [[1, 2, 4], [0, 3, 5, 6]],
        ],
    }


# ---------- verify-bounds ----------


def test_verify_bounds_happy_path(tmp_path, capsys):
    cfg = write_config(tmp_path, verify_bounds_config())
    out = tmp_path / "report.csv"
    jsonl = tmp_path / "report.jsonl"
    code = cli.main(
        ["verify-bounds", "--config", cfg, "--out", str(out), "--jsonl", str(jsonl)]
    )
    assert code == 0
    assert "all bounds hold" in capsys.readouterr().err
    lines = out.read_text().splitlines()
    assert lines[0] == HEADER_LINE
    # one row per (family, k, bound): 2 * 2 * 6
    assert len(lines) == 1 + 24
    records = [json.loads(line) for line in jsonl.read_text().splitlines()]
    assert len(records) == 24
    assert all(not r["violated"] for r in records)
    assert {r["bound_name"] for r in records} == set(verify_bounds_config()["bounds"])


def test_verify_bounds_stdout_when_no_out(tmp_path, capsys):
    cfg = write_config(tmp_path, verify_bounds_config())
    code = cli.main(["verify-bounds", "--config", cfg])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.splitlines()[0] == HEADER_LINE


def test_verify_bounds_rows_are_complete_even_when_hypotheses_fail(tmp_path):
    # equal sizes (3, 3): anr needs strictly increasing, so its rows keep an
    # empty bound_value but still appear
    cfg = write_config(
        tmp_path,
        {
            "field": "gf(7)",
            "k": 1,
            "bounds": ["anr"],
            "families": [[[0, 1, 2], [0, 1, 2]]],
        },
    )
    out = tmp_path / "r.csv"
    assert cli.main(["verify-bounds", "--config", cfg, "--out", str(out)]) == 0
    row = out.read_text().splitlines()[1].split(",")
    assert row[4] == "3;3"
    assert row[5] == "anr"
    assert row[6] == ""  # bound_value empty
    assert row[8] == "false"  # hypotheses_ok
    assert row[9] == ""  # tight unknown


def test_verify_bounds_guard_skips_are_not_fatal(tmp_path):
    cfg = write_config(tmp_path, verify_bounds_config())
    out = tmp_path / "r.csv"
    code = cli.main(
        ["verify-bounds", "--config", cfg, "--out", str(out), "--guard-tuples", "2"]
    )
    assert code == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert all(r[7] == "" for r in rows)  # actual_cardinality empty everywhere
    assert any(r[6] != "" for r in rows)  # bounds still reported


def test_verify_bounds_summary_counts_guard_skips(tmp_path, capsys):
    cfg = write_config(tmp_path, verify_bounds_config())
    assert cli.main(["verify-bounds", "--config", cfg, "--guard-tuples", "2"]) == 0
    assert capsys.readouterr().err.strip() == (
        "verify-bounds: 24 rows, 0 checked, 24 skipped by the tuple guard, nothing checked"
    )
    assert cli.main(["verify-bounds", "--config", cfg]) == 0
    # with nothing skipped the line keeps its exact form
    assert capsys.readouterr().err.strip() == "verify-bounds: 24 rows, 12 checked, all bounds hold"


def test_tightness_summary_counts_guard_skips(tmp_path, capsys):
    cfg = write_config(tmp_path, verify_bounds_config())
    assert cli.main(["tightness", "--config", cfg, "--guard-tuples", "2"]) == 0
    assert capsys.readouterr().err.strip() == (
        "tightness: 24 rows, 0 tight, 24 skipped by the tuple guard, nothing checked"
    )
    assert cli.main(["tightness", "--config", cfg]) == 0
    # with nothing skipped the line keeps its exact form
    assert capsys.readouterr().err.strip() == "tightness: 24 rows, 3 tight, 0 violations"


def test_verify_bounds_byte_determinism(tmp_path):
    cfg = write_config(tmp_path, verify_bounds_config())
    outputs = []
    for run in range(2):
        out = tmp_path / f"run{run}.csv"
        jsonl = tmp_path / f"run{run}.jsonl"
        assert (
            cli.main(
                [
                    "verify-bounds",
                    "--config",
                    cfg,
                    "--out",
                    str(out),
                    "--jsonl",
                    str(jsonl),
                    "--seed",
                    "42",
                ]
            )
            == 0
        )
        outputs.append((out.read_bytes(), jsonl.read_bytes()))
    assert outputs[0] == outputs[1]


def test_verify_bounds_sampled_families_deterministic_per_seed(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "field": "gf(11)",
            "k": 2,
            "bounds": ["thm12"],
            "sample": {"sizes": [[2, 3]], "count": 4},
        },
    )
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert cli.main(["verify-bounds", "--config", cfg, "--out", str(first), "--seed", "7"]) == 0
    assert cli.main(["verify-bounds", "--config", cfg, "--out", str(second), "--seed", "7"]) == 0
    assert first.read_bytes() == second.read_bytes()
    assert len(first.read_text().splitlines()) == 1 + 4


def test_verify_bounds_sweep_and_equal_sets(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "field": "gf(5)",
            "k": 1,
            "bounds": ["dsh"],
            "sweep": {"sizes": [[2, 2]], "equal_sets": True},
        },
    )
    out = tmp_path / "r.csv"
    assert cli.main(["verify-bounds", "--config", cfg, "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 10  # C(5, 2) shared subsets
    assert all(r[8] == "true" for r in rows)  # equal sets satisfy dsh


def test_verify_bounds_sweep_over_independent_sets(tmp_path):
    # every pair (A_1, A_2) of a 2-subset and a 3-subset of GF(5), with a
    # non-unit form and a tail; rows with equal sort keys keep the order
    # the families were generated in, itertools.product of the subsets
    cfg = {
        "field": "gf(5)",
        "k": [2, 3],
        "bounds": ["thm11u", "thm11r"],
        "leading": [2, 3],
        "tail": "x1 + 1",
        "sweep": {"sizes": [[2, 3]]},
    }
    code, records = scan_records(tmp_path, "verify-bounds", cfg)
    assert code == 0
    field = parse_field("gf(5)")
    families = [
        SetFamily.from_elements(field, [list(a), list(b)])
        for a, b in itertools.product(itertools.combinations(range(5), 2), itertools.combinations(range(5), 3))
    ]
    assert len(families) == 100
    for k in (2, 3):
        form = PowerSumForm(k, (2, 3), parse_poly("x1 + 1", nvars=2))
        for name, run in (("thm11u", unrestricted_value_set), ("thm11r", restricted_value_set)):
            rows = [r for r in records if (r["k"], r["bound_name"]) == (k, name)]
            assert len({r["bound_value"] for r in rows}) == 1  # so the sort kept the order
            assert [r["actual_cardinality"] for r in rows] == [run(fam, form).cardinality for fam in families]


def test_verify_bounds_timings_fill_elapsed(tmp_path):
    cfg = write_config(tmp_path, verify_bounds_config())
    out = tmp_path / "r.csv"
    assert cli.main(["verify-bounds", "--config", cfg, "--out", str(out), "--timings"]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert all(r[11] != "" for r in rows)


def test_verify_bounds_theorem_violation_exits_2(tmp_path, monkeypatch, capsys):
    real = bounds_module.residue_class_bound

    def inflated(sizes, k, char):
        return BoundResult("thm12", real(sizes, k, char).value + 10)

    monkeypatch.setattr(bounds_module, "residue_class_bound", inflated)
    cfg = write_config(
        tmp_path,
        {
            "field": "gf(7)",
            "k": 2,
            "bounds": ["thm12"],
            "families": [[[0, 1, 2], [0, 1, 2, 3]]],
        },
    )
    out = tmp_path / "r.csv"
    code = cli.main(["verify-bounds", "--config", cfg, "--out", str(out)])
    assert code == 2
    assert "VIOLATIONS FOUND" in capsys.readouterr().err
    assert out.exists()  # artifacts are still written


# ---------- per-token hypotheses ----------

ALL_BOUNDS = ["thm12", "thm13", "thm11u", "thm11r", "anr", "dsh", "conj11"]
SEVEN = list(range(7))

# (leading, k, sets, bound_value per token in ALL_BOUNDS order); None means
# hypotheses_ok is false and bound_value is empty.  Every family is over GF(7).
HYPOTHESIS_CASES = [
    # unit leading written as 8 (8 = 1 mod 7), increasing sizes
    ([8, 1], 1, [[0, 1], [0, 1, 2]], [3, None, 4, None, 3, None, None]),
    # non-unit leading: thm12, anr lose their hypotheses
    ([2, 1], 1, [[0, 1], [0, 1, 2]], [None, None, 4, None, None, None, None]),
    # one shared set at k = 1: thm13, dsh, conj11 hold; anr needs increasing sizes
    ([8, 1], 1, [[0, 1, 2], [0, 1, 2]], [3, 3, 5, None, None, 3, 3]),
    # non-unit leading: thm12, thm13, dsh lose their hypotheses, conj11 does not
    ([2, 1], 1, [[0, 1, 2], [0, 1, 2]], [None, None, 5, None, None, None, 3]),
    # k = 2: anr, dsh need k = 1; thm11r needs k >= n
    ([1, 1], 2, [[0, 1, 2], [0, 1, 2]], [2, 2, 3, 2, None, None, 2]),
    # k > n: thm12 and conj11 fail, thm11r holds
    ([1, 1], 3, [[0, 1, 2], [0, 1, 2, 3]], [None, None, 2, 1, None, None, None]),
    # the size staircase |A_i| >= i fails at i = 2
    ([1, 1], 2, [[0], [1]], [None, None, 1, None, None, None, None]),
    # an empty set fails every floor's hypotheses, thm11u's included
    ([1, 1], 1, [[], [0, 1]], [None] * 7),
    # equal sizes but different sets: thm13 holds, dsh and conj11 do not
    ([1, 1], 1, [[0, 1, 2], [0, 1, 3]], [3, 3, 5, None, None, None, None]),
    # a1 = -a2 at n = 2 lowers the conj11 clamp from p to p - 1
    ([1, 6], 1, [SEVEN, SEVEN], [None, None, 7, None, None, None, 6]),
    ([1, 1], 1, [SEVEN, SEVEN], [7, 7, 7, None, None, 7, 7]),
]


@pytest.mark.parametrize("leading, k, sets, expected", HYPOTHESIS_CASES)
def test_hypotheses_and_values_per_token(tmp_path, capsys, leading, k, sets, expected):
    cfg = write_config(
        tmp_path,
        {"field": "gf(7)", "k": k, "leading": leading, "bounds": ALL_BOUNDS, "families": [sets]},
    )
    jsonl = tmp_path / "r.jsonl"
    code = cli.main(["tightness", "--config", cfg, "--jsonl", str(jsonl), "--out", str(tmp_path / "r.csv")])
    assert code == 0
    capsys.readouterr()
    records = {r["bound_name"]: r for r in map(json.loads, jsonl.read_text().splitlines())}
    got = {name: (records[name]["hypotheses_ok"], records[name]["bound_value"]) for name in ALL_BOUNDS}
    assert got == {name: (value is not None, value) for name, value in zip(ALL_BOUNDS, expected)}


# ---------- config and usage errors ----------


@pytest.mark.parametrize(
    "mutate",
    [
        lambda c: c.update(bogus=1),  # unknown key
        lambda c: c.pop("field"),  # missing required key
        lambda c: c.update(sweep={"sizes": [[2, 2]]}),  # two family sources
        lambda c: c.pop("families"),  # no family source
        lambda c: c.update(bounds=["conj11"]),  # conjecture not allowed here
        lambda c: c.update(bounds=["nope"]),  # unknown bound name
        lambda c: c.update(bounds=[]),
        lambda c: c.update(k=[2, 1]),  # reversed range
        lambda c: c.update(k=0),
        lambda c: c.update(leading=[1, 1, 1]),  # wrong arity
        lambda c: c.update(leading=[7, 1]),  # dies mod 7
        lambda c: c.update(tail="x1^2"),  # degree >= min k
        lambda c: c.update(tail="y"),  # unparseable
        lambda c: c.update(families=[[[0, 1], [0, 1]], [[0], [1], [2]]]),  # n differs
        lambda c: c.update(families=[[[1, 8], [0, 1]]]),  # duplicate mod 7
    ],
)
def test_verify_bounds_config_errors_exit_1(tmp_path, capsys, mutate):
    cfg = verify_bounds_config()
    mutate(cfg)
    path = write_config(tmp_path, cfg)
    assert cli.main(["verify-bounds", "--config", path]) == 1
    assert "error" in capsys.readouterr().err


def test_vanishing_leading_coefficient_is_named_as_every_route_names_it(tmp_path, capsys):
    cfg = verify_bounds_config()
    cfg["leading"] = [7, 1]
    assert cli.main(["verify-bounds", "--config", write_config(tmp_path, cfg)]) == 1
    assert capsys.readouterr().err == "config error: leading coefficient a1 = 7 vanishes in gf(7)\n"


def test_zero_denominator_is_a_config_error(tmp_path, capsys):
    scan = {"field": "rational", "k": 1, "bounds": ["thm12"], "families": [[["1/0", 1], [2, 3]]]}
    replay = {"family": {"field": "rational", "sets": [["1/0", 1]]}, "k": 1}
    for verb, cfg in [("verify-bounds", scan), ("tightness", scan), ("proof-replay", replay)]:
        assert cli.main([verb, "--config", write_config(tmp_path, cfg)]) == 1
        assert capsys.readouterr().err == "config error: '1/0' has a zero denominator\n"


def test_tightness_scan_without_a_field_is_a_config_error(tmp_path, capsys):
    cfg = {"k": 2, "bounds": ["thm12"], "families": [[[0, 1], [1, 2]]]}
    assert cli.main(["tightness", "--config", write_config(tmp_path, cfg)]) == 1
    assert capsys.readouterr().err == "config error: field string expected, got None\n"


def test_replay_family_field_that_is_no_string_is_a_config_error(tmp_path, capsys):
    for field in (None, 7):
        cfg = {"family": {"field": field, "sets": [[0, 1]]}, "k": 1}
        assert cli.main(["proof-replay", "--config", write_config(tmp_path, cfg)]) == 1
        assert capsys.readouterr().err == f"config error: field string expected, got {field}\n"


def test_generation_config_errors(tmp_path, capsys):
    huge_sweep = {
        "field": "gf(13)",
        "k": 2,
        "bounds": ["thm12"],
        "sweep": {"sizes": [[6, 6]]},
    }
    assert cli.main(["verify-bounds", "--config", write_config(tmp_path, huge_sweep)]) == 1
    assert "sample" in capsys.readouterr().err

    rational_sample = {
        "field": "rational",
        "k": 1,
        "bounds": ["thm12"],
        "sample": {"sizes": [[2, 2]], "count": 1},
    }
    assert (
        cli.main(
            ["verify-bounds", "--config", write_config(tmp_path, rational_sample, "r.json")]
        )
        == 1
    )

    unequal_equal_sets = {
        "field": "gf(7)",
        "k": 1,
        "bounds": ["thm12"],
        "sweep": {"sizes": [[2, 3]], "equal_sets": True},
    }
    assert (
        cli.main(
            ["verify-bounds", "--config", write_config(tmp_path, unequal_equal_sets, "e.json")]
        )
        == 1
    )

    oversized = {
        "field": "gf(5)",
        "k": 1,
        "bounds": ["thm12"],
        "sweep": {"sizes": [[6, 2]]},
    }
    assert (
        cli.main(["verify-bounds", "--config", write_config(tmp_path, oversized, "o.json")])
        == 1
    )


def scan_config(**source):
    return {"field": "gf(7)", "k": 1, "bounds": ["thm12"], **source}


REPLAY_FAMILY = {"field": "gf(7)", "sets": [[0, 1]]}


@pytest.mark.parametrize(
    "verb, cfg, message",
    [
        ("verify-bounds", scan_config(sample={"sizes": [[2, 2]], "count": 0}), '"count" must be an integer >= 1, got 0'),
        ("verify-bounds", scan_config(sweep={"sizes": 3}), '"sizes" must be a nonempty list of nonempty size vectors'),
        ("verify-bounds", scan_config(sweep={"sizes": [[2, True]]}), "sizes must be positive integers, got True"),
        ("verify-bounds", scan_config(sweep={"sizes": [[2, 2], [2, 2, 2]]}), "all size vectors in one config must share a length"),
        ("verify-bounds", scan_config(families={"a": 1}), '"families" must be a nonempty list of families'),
        ("verify-bounds", scan_config(families=[[[0, 1], 2]]), "each family must be a list of element lists"),
        ("verify-bounds", scan_config(sweep=[[2, 2]]), '"sweep" must be a JSON object'),
        ("verify-bounds", scan_config(sample=3), '"sample" must be a JSON object'),
        ("verify-bounds", scan_config(sweep={"sizes": [[2, 2]], "count": 3}), "unknown \"sweep\" keys: ['count']"),
        ("verify-bounds", scan_config(sweep={"sizes": [[2, 2]], "equal_sets": 1}), '"equal_sets" must be a boolean'),
        ("tightness", scan_config(families=[[[0, 1], [2, 3]]], tail=3), '"tail" must be a polynomial string'),
        ("tightness", {"profiles": [1]}, '"profiles" must be a JSON object'),
        ("tightness", {"profiles": {"k_max": 2, "q_max": 2, "x": 1}}, "unknown \"profiles\" keys: ['x']"),
        ("proof-replay", {"family": [1], "k": 1}, "family JSON must be an object, got list"),
        ("proof-replay", {"family": {"field": "gf(7)", "sets": [0, 1]}, "k": 1}, '"sets" must be a list of lists'),
    ],
)
def test_each_config_error_names_its_key(tmp_path, capsys, verb, cfg, message):
    assert cli.main([verb, "--config", write_config(tmp_path, cfg)]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_a_non_prime_field_is_a_config_error_in_every_verb(tmp_path, capsys):
    scan = {"field": "gf(6)", "k": 1, "bounds": ["thm12"], "families": [[[0, 1], [2, 3]]]}
    replay = {"family": {"field": "gf(6)", "sets": [[0, 1]]}, "k": 1}
    for verb, cfg in [("verify-bounds", scan), ("tightness", scan), ("proof-replay", replay)]:
        assert cli.main([verb, "--config", write_config(tmp_path, cfg)]) == 1
        assert capsys.readouterr().err == "config error: gf(6): 6 is not prime\n"


def readme_configs() -> list:
    """(verb, config) for each JSON block and inline object under a verb's
    heading in the README's command-line section."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    configs = []
    for part in section.split("\n### ")[1:]:
        verb, body = part.split("\n", 1)
        blocks = re.findall(r"```json\n(.*?)```", body, flags=re.DOTALL)
        inline = re.findall(r"`(\{[^`]*\})`", re.sub(r"```.*?```", "", body, flags=re.DOTALL))
        configs += [(verb, json.loads(text)) for text in blocks + inline]
    return configs


# the two example41 profiles the README shows being refused by the guard
README_REFUSED = [{"n": 50, "k": 10, "q": 10, "r": 0}, {"n": 10000, "k": 100, "q": 400, "r": 0}]


def test_readme_example_configs_run(tmp_path, capsys):
    configs = readme_configs()
    assert [verb for verb, _ in configs] == [
        "verify-bounds", "tightness", "verify-coeff", "example41", "example41", "example41", "proof-replay",
    ]
    for verb, cfg in configs:
        code = cli.main([verb, "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "out")])
        assert code == (1 if cfg in README_REFUSED else 0), (verb, cfg)
    capsys.readouterr()


def test_unreadable_or_malformed_config(tmp_path, capsys):
    assert cli.main(["verify-bounds", "--config", str(tmp_path / "missing.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["verify-bounds", "--config", str(bad)]) == 1
    array = tmp_path / "array.json"
    array.write_text("[1, 2]")
    assert cli.main(["verify-bounds", "--config", str(array)]) == 1


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify-bounds"])  # missing --config
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 1
    # an option the verb does not read is a usage error, not a silent no-op
    for verb, option in [
        ("verify-coeff", ["--seed", "5"]),
        ("proof-replay", ["--timings"]),
        ("verify-bounds", ["--guard-terms", "9"]),
        ("example41", ["--n", "2"]),
    ]:
        with pytest.raises(SystemExit) as exc:
            cli.main([verb, "--config", "unused.json", *option])
        assert exc.value.code == 1, verb
    capsys.readouterr()


def verb_parsers() -> dict:
    """Each verb's subparser, in the order the CLI lists them."""
    parser = cli.build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def verb_options(verb) -> set:
    """The long options of one verb's subparser, --help aside."""
    actions = verb_parsers()[verb]._actions
    return {s for a in actions for s in a.option_strings if s.startswith("--")} - {"--help"}


SHARED_OPTIONS = {"--config", "--out", "--jsonl"}


@pytest.mark.parametrize(
    "verb, options",
    [
        ("verify-bounds", {"--seed", "--guard-tuples", "--timings"}),
        ("tightness", {"--seed", "--guard-tuples", "--timings"}),
        ("verify-coeff", {"--guard-terms"}),
        ("example41", {"--seed", "--guard-tuples"}),
        ("proof-replay", {"--guard-tuples", "--guard-terms"}),
    ],
)
def test_each_verb_takes_only_the_options_it_reads(verb, options):
    assert verb_options(verb) == SHARED_OPTIONS | options


def test_out_help_names_both_report_formats():
    # one help string for every verb: proof-replay's --out is JSON, not CSV
    helps = {
        verb: next(a.help for a in sub._actions if "--out" in a.option_strings)
        for verb, sub in verb_parsers().items()
    }
    assert len(set(helps.values())) == 1
    assert "CSV" in helps["verify-coeff"] and "JSON replay for proof-replay" in helps["proof-replay"]


def test_readme_lists_each_verbs_options():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    table = dict(re.findall(r"^\| `([\w-]+)` \| (.*) \|$", section, flags=re.MULTILINE))
    assert list(table) == list(verb_parsers())
    for verb, cell in table.items():
        assert SHARED_OPTIONS | set(re.findall(r"--[\w-]+", cell)) == verb_options(verb), verb


def test_main_reuses_one_parser(tmp_path, capsys):
    cfg = write_config(tmp_path, {"n_max": 1, "sum_max": 1})
    cli.build_parser.cache_clear()
    for _ in range(3):
        assert cli.main(["verify-coeff", "--config", cfg]) == 0
    assert cli.build_parser.cache_info().misses == 1
    capsys.readouterr()


# ---------- tightness ----------


def test_tightness_family_scan_with_conjecture(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "field": "gf(7)",
            "k": 2,
            "bounds": ["thm12", "conj11"],
            "families": [[[0, 1, 2, 5], [0, 1, 2, 5]]],
        },
    )
    out = tmp_path / "r.csv"
    jsonl = tmp_path / "r.jsonl"
    code = cli.main(["tightness", "--config", cfg, "--out", str(out), "--jsonl", str(jsonl)])
    assert code == 0
    err = capsys.readouterr().err
    assert "0 violations" in err
    records = [json.loads(line) for line in jsonl.read_text().splitlines()]
    conj = [r for r in records if r["bound_name"] == "conj11"]
    assert conj and conj[0]["bound_value"] == 3
    assert conj[0]["actual_cardinality"] == 3
    assert conj[0]["tight"] is True


def test_tightness_profiles(tmp_path, capsys):
    cfg = write_config(tmp_path, {"profiles": {"k_max": 3, "q_max": 2}})
    out = tmp_path / "r.csv"
    code = cli.main(["tightness", "--config", cfg, "--out", str(out)])
    assert code == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert rows
    assert all(r[5] == "ex41" for r in rows)
    assert all(r[9] == "true" for r in rows)  # the model always attains the formula
    assert "0 violations" in capsys.readouterr().err


def vector_count(n, k, q, r):
    """Multiplicity vectors the sharpness model visits: one take of at most
    its cap for each of its q + 1 root targets, summing to n."""
    caps = [k] * q + [r]
    return sum(sum(takes) == n for takes in itertools.product(*(range(min(cap, n) + 1) for cap in caps)))


def test_tightness_profiles_read_the_guard_and_timings(tmp_path, capsys):
    cfg = write_config(tmp_path, {"profiles": {"k_max": 3, "q_max": 2}})
    plain, guarded, timed = (tmp_path / name for name in ("plain.jsonl", "guarded.jsonl", "timed.jsonl"))
    assert cli.main(["tightness", "--config", cfg, "--jsonl", str(plain), "--out", str(tmp_path / "a.csv")]) == 0
    assert capsys.readouterr().err.strip() == "tightness: 54 rows, 54 tight, 0 violations"
    rows = [json.loads(line) for line in plain.read_text().splitlines()]
    assert all(r["elapsed_ms"] == "" for r in rows)
    # a guard of 4 refuses the profiles with more multiplicity vectors
    argv = ["tightness", "--config", cfg, "--out", str(tmp_path / "b.csv"), "--guard-tuples", "4"]
    assert cli.main(argv + ["--jsonl", str(guarded)]) == 0
    counts = [vector_count(r["n"], r["k"], *divmod(r["sizes"][0], r["k"])) for r in rows]
    refused = sum(count > 4 for count in counts)
    assert 0 < refused < len(rows)
    assert capsys.readouterr().err.strip() == (
        f"tightness: 54 rows, {54 - refused} tight, {refused} skipped by the tuple guard, 0 violations"
    )
    for row, count, got in zip(rows, counts, map(json.loads, guarded.read_text().splitlines())):
        if count > 4:
            row = {**row, "actual_cardinality": None, "tight": None}
        assert got == row
    # a guard no profile passes checks nothing: each has a vector
    assert cli.main(["tightness", "--config", cfg, "--guard-tuples", "0"]) == 0
    assert capsys.readouterr().err.strip().endswith("54 skipped by the tuple guard, nothing checked")
    # --timings fills elapsed_ms and changes nothing else
    argv = ["tightness", "--config", cfg, "--out", str(tmp_path / "c.csv"), "--timings"]
    assert cli.main(argv + ["--jsonl", str(timed)]) == 0
    timed_rows = [json.loads(line) for line in timed.read_text().splitlines()]
    assert all(r["elapsed_ms"].isdigit() for r in timed_rows)
    assert [{**r, "elapsed_ms": ""} for r in timed_rows] == rows
    capsys.readouterr()
    # k = q = 10, n = 50 would visit about 1.02e9 multiplicity vectors: the
    # default guard refuses it before enumerating.  k = q = 8, n = 8 visits
    # 6,435 of the 9^8 vectors of its caps, so it is counted.
    row = cli._ex41_row(MultiplicityProfile(k=10, q=10, r=0, n=50), "0", DEFAULT_TUPLE_GUARD)
    assert (row.actual_cardinality, row.tight, row.violated) == (None, None, False)
    row = cli._ex41_row(MultiplicityProfile(k=8, q=8, r=0, n=8), "0", DEFAULT_TUPLE_GUARD)
    assert (row.actual_cardinality, row.tight) == (row.bound_value, True)


def test_tightness_rejects_mixed_modes(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"profiles": {"k_max": 2, "q_max": 1}, "field": "gf(7)"},
    )
    assert cli.main(["tightness", "--config", cfg]) == 1
    cfg2 = write_config(tmp_path, {}, "empty.json")
    assert cli.main(["tightness", "--config", cfg2]) == 1
    capsys.readouterr()


def test_tightness_conjecture_violation_exits_3(tmp_path, monkeypatch, capsys):
    real = bounds_module.single_set_conjecture_bound

    def inflated(m, n, k, char, negated_pair=False):
        return BoundResult("conj11", real(m, n, k, char, negated_pair).value + 1, conjectural=True)

    monkeypatch.setattr(bounds_module, "single_set_conjecture_bound", inflated)
    cfg = write_config(
        tmp_path,
        {
            "field": "gf(7)",
            "k": 2,
            "bounds": ["conj11"],
            "families": [[[0, 1, 2, 5], [0, 1, 2, 5]]],
        },
    )
    jsonl = tmp_path / "r.jsonl"
    code = cli.main(["tightness", "--config", cfg, "--jsonl", str(jsonl), "--out", str(tmp_path / "r.csv")])
    assert code == 3
    records = [json.loads(line) for line in jsonl.read_text().splitlines()]
    assert any(r["violated"] for r in records)
    assert "1 violations" in capsys.readouterr().err


def test_tightness_theorem_beats_conjecture(tmp_path, monkeypatch, capsys):
    real_thm = bounds_module.residue_class_bound
    real_conj = bounds_module.single_set_conjecture_bound
    monkeypatch.setattr(
        bounds_module,
        "residue_class_bound",
        lambda sizes, k, char: BoundResult("thm12", real_thm(sizes, k, char).value + 10),
    )
    monkeypatch.setattr(
        bounds_module,
        "single_set_conjecture_bound",
        lambda m, n, k, char, negated_pair=False: BoundResult(
            "conj11", real_conj(m, n, k, char, negated_pair).value + 10, conjectural=True
        ),
    )
    cfg = write_config(
        tmp_path,
        {
            "field": "gf(7)",
            "k": 2,
            "bounds": ["thm12", "conj11"],
            "families": [[[0, 1, 2, 5], [0, 1, 2, 5]]],
        },
    )
    code = cli.main(["tightness", "--config", cfg, "--out", str(tmp_path / "r.csv")])
    assert code == 2  # theorem violation shadows the conjecture exit code
    capsys.readouterr()


# ---------- prime fields: the residue route against the exact enumerator ----------


def scan_records(tmp_path, verb, cfg):
    """Run one family scan; return its exit code and JSONL records."""
    path = write_config(tmp_path, cfg, name="scan.json")
    jsonl = tmp_path / "scan.jsonl"
    code = cli.main([verb, "--config", path, "--out", str(tmp_path / "scan.csv"), "--jsonl", str(jsonl)])
    return code, [json.loads(line) for line in jsonl.read_text().splitlines()]


def assert_rows_match_enumerator(cfg, records):
    """Every row's actual_cardinality is the exact enumerator's, for a config
    with a single explicit family."""
    (sets,) = cfg["families"]
    n = len(sets)
    family = SetFamily.from_elements(parse_field(cfg["field"]), sets)
    tail = parse_poly(cfg["tail"], nvars=n) if "tail" in cfg else SparsePoly.zero(n)
    exact = {}
    for record in records:
        key = (record["k"], bounds_module.BOUNDS[record["bound_name"]].restricted)
        if key not in exact:
            form = PowerSumForm(key[0], cfg.get("leading", [1] * n), tail)
            run = restricted_value_set if key[1] else unrestricted_value_set
            exact[key] = run(family, form).cardinality
        assert record["actual_cardinality"] == exact[key], (cfg, record)
    return len(exact)


def random_nonzero(rng, p):
    """A coefficient that survives mod p, often negative or >= p."""
    while True:
        a = rng.choice([-1, 1]) * rng.randint(1, 3 * p)
        if a % p:
            return a


def differential_configs():
    """Seeded single-family scans over GF(2..13), n = 1..4, k = 1..5: a set of
    size p, repeated sets, leading coefficients negative or >= p, and tails
    with mixed monomials and negative coefficients."""
    rng = random.Random(20)
    for p in (2, 3, 5, 7, 11, 13):
        for n in range(1, 5):
            whole = list(range(p))
            repeated = sorted(rng.sample(whole, min(p, 3)))
            small = [sorted(rng.sample(whole, rng.randint(1, min(p, 3)))) for _ in range(n)]
            full_at = rng.randrange(n)
            families = [
                [whole if i == full_at else s for i, s in enumerate(small)],
                [repeated] * n,
            ]
            square = f"x1*x{n}" if n > 1 else "x1^2"
            mixed = f"{square} - 2*x{rng.randint(1, n)} - 3"
            for sets in families:
                leading = [random_nonzero(rng, p) for _ in range(n)]
                yield {"field": f"gf({p})", "k": [1, 5], "leading": leading, "tail": "-2", "families": [sets]}
                yield {"field": f"gf({p})", "k": [3, 5], "leading": leading, "tail": mixed, "families": [sets]}


def test_prime_scans_match_exact_enumerator(tmp_path, capsys):
    compared = 0
    for cfg in differential_configs():
        cfg["bounds"] = ALL_BOUNDS
        code, records = scan_records(tmp_path, "tightness", cfg)
        assert code == 0, cfg
        assert len(records) == len(ALL_BOUNDS) * (cfg["k"][1] - cfg["k"][0] + 1)
        compared += assert_rows_match_enumerator(cfg, records)
    capsys.readouterr()
    assert compared == 6 * 4 * 2 * (5 + 3) * 2  # (p, n, family, k, variant)


def test_prime_scans_make_no_polynomial_evaluations(tmp_path, monkeypatch, capsys):
    calls = []
    for owner in (SparsePoly, PowerSumForm):
        real = owner.eval
        monkeypatch.setattr(owner, "eval", lambda self, point, real=real: calls.append(1) or real(self, point))
    cfg = {
        "field": "gf(13)",
        "k": [2, 3],
        "bounds": ["thm12", "thm13", "thm11u", "thm11r"],
        "families": [[[0, 1, 2, 5], [1, 3, 4, 6, 7], [0, 2, 4, 8, 9, 12]]],
        "tail": "1 - 2*x1 + x3",
    }
    assert scan_records(tmp_path, "verify-bounds", cfg)[0] == 0
    assert calls == []
    # the same scan over the rationals counts on the integer grid too
    assert scan_records(tmp_path, "verify-bounds", dict(cfg, field="rational"))[0] == 0
    assert calls == []
    # past the int64 bound it goes through the exact enumerator
    far = [[f"1/{q}" for q in (999_983, 999_979, 999_961)], [0, 1], [2, "1/3"]]
    assert scan_records(tmp_path, "verify-bounds", dict(cfg, field="rational", families=[far]))[0] == 0
    assert calls
    capsys.readouterr()


def count_grid_calls(monkeypatch):
    """A list that grows by one for each family counted on the int64 grid."""
    calls = []
    real = sweeps._family_counts
    monkeypatch.setattr(sweeps, "_family_counts", lambda *a: calls.append(1) or real(*a))
    return calls


def test_primes_past_int64_products_use_the_exact_enumerator(tmp_path, monkeypatch, capsys):
    residue_calls = count_grid_calls(monkeypatch)
    for p, routed in ((2**31 - 1, True), (3_037_000_507, False)):
        assert sweeps._residue_route_fits(p) == routed
        residue_calls.clear()
        cfg = {
            "field": f"gf({p})",
            "k": [1, 2],
            "bounds": ALL_BOUNDS,
            "leading": [p - 1, p - 2, -3],
            "families": [[[0, 1, p - 1, p - 2], [0, 1, p - 1, p - 5], [2, p - 2, p - 3]]],
        }
        code, records = scan_records(tmp_path, "tightness", cfg)
        assert code == 0
        assert bool(residue_calls) == routed
        assert assert_rows_match_enumerator(cfg, records) == 4
    capsys.readouterr()


def rational_differential_configs():
    """Seeded single-family scans over Q, n = 1..4, k = 1..5: elements with
    denominators 1..7, negative and zero, repeated sets, leading coefficients
    such as [-3, 1, 5], and tails with mixed monomials and negative
    coefficients."""
    rng = random.Random(21)

    def element():
        return str(Fraction(rng.randint(-9, 9), rng.randint(1, 7)))

    for n in range(1, 5):
        independent = [sorted({element() for _ in range(rng.randint(1, 4))}) for _ in range(n)]
        with_zero = [sorted({"0", element(), element()}) for _ in range(n)]
        repeated = [sorted({"0", "-1/2", "2/7", "3", element()})] * n
        square = f"x1*x{n}" if n > 1 else "x1^2"
        mixed = f"-{square} - 2*x{rng.randint(1, n)} + 3"
        for sets, leading in (
            (independent, [rng.choice([-3, -2, -1, 1, 2, 5]) for _ in range(n)]),
            (with_zero, [1] * n),
            (repeated, [-3, 1, 5, 2][:n]),
        ):
            yield {"field": "rational", "k": [1, 5], "leading": leading, "tail": "-2", "families": [sets]}
            yield {"field": "rational", "k": [3, 5], "leading": leading, "tail": mixed, "families": [sets]}


def test_rational_scans_match_exact_enumerator(tmp_path, monkeypatch, capsys):
    grid_calls = count_grid_calls(monkeypatch)
    compared = 0
    for cfg in rational_differential_configs():
        cfg["bounds"] = ALL_BOUNDS
        code, records = scan_records(tmp_path, "tightness", cfg)
        assert code == 0, cfg
        assert len(records) == len(ALL_BOUNDS) * (cfg["k"][1] - cfg["k"][0] + 1)
        compared += assert_rows_match_enumerator(cfg, records)
    capsys.readouterr()
    assert compared == 4 * 3 * (5 + 3) * 2  # (n, family, k, variant)
    assert len(grid_calls) == compared // 2  # every (family, k) on the grid


def test_rationals_past_the_int64_bound_use_the_exact_enumerator(tmp_path, monkeypatch, capsys):
    grid_calls = count_grid_calls(monkeypatch)
    # u = 3x reaches M, and L^2 * f = u1^2 + u2^2 + 3c*u1 + 9 is bounded by
    # 2*M^2 + 3c*M + 9: for M = 2^31 - 1 that is 2^63 - 2^31 + 8 at c = 1
    # and 2^63 + 2^32 + 5 at c = 2; for M = 2^31 the leading part is 2^63
    for top, c, routed in ((2**31 - 1, 1, True), (2**31 - 1, 2, False), (2**31, 1, False)):
        grid_calls.clear()
        cfg = {
            "field": "rational",
            "k": 2,
            "bounds": ALL_BOUNDS,
            "tail": f"{c}*x1 + 1",
            "families": [[[0, f"{top}/3"], [0, f"{top}/3", "-1/3"]]],
        }
        code, records = scan_records(tmp_path, "tightness", cfg)
        assert code == 0
        assert bool(grid_calls) == routed, (top, c)
        assert assert_rows_match_enumerator(cfg, records) == 2
    # denominators near 10^6 at k = 4: L^4 alone is past 2^63
    grid_calls.clear()
    cfg = {
        "field": "rational",
        "k": 4,
        "bounds": ALL_BOUNDS,
        "leading": [1, -2, 3, 1],
        "families": [[["1/999983", "2/999979"], ["1/999961", 3], ["-1/999959", 0], ["1/2", "1/3"]]],
    }
    code, records = scan_records(tmp_path, "tightness", cfg)
    assert code == 0
    assert grid_calls == []
    assert assert_rows_match_enumerator(cfg, records) == 2
    capsys.readouterr()


def test_sliced_residue_grids_give_identical_reports(tmp_path, monkeypatch, capsys):
    # families whose grids pass a 4 KB guard: the counts come from slabs of
    # the first set, and from single elements times slabs of the second; in
    # GF(1009) few of their values coincide, so a lost box changes a count
    cfg = {
        "field": "gf(1009)",
        "k": [3, 4],
        "tail": "2*x1*x2 - x3 + 1",
        "families": [
            [[0, 3, 7, 9, 12], [1, 2, 4, 5, 8, 11], [0, 1, 2, 3, 6, 7, 10]],
            [[2, 5, 600], list(range(10)), list(range(500, 510))],
        ],
    }
    reports = []
    for guard in (None, 4096):
        if guard:
            monkeypatch.setattr(sweeps, "LATTICE_BYTE_GUARD", guard)
        evaluations = []
        real = sweeps._residue_values
        monkeypatch.setattr(sweeps, "_residue_values", lambda *a: evaluations.append(1) or real(*a))
        for verb, bounds in (("verify-bounds", list(cli.THEOREM_BOUNDS)), ("tightness", ALL_BOUNDS)):
            code, records = scan_records(tmp_path, verb, dict(cfg, bounds=bounds))
            reports.append((verb, code, capsys.readouterr().err, (tmp_path / "scan.csv").read_bytes(), records))
        monkeypatch.setattr(sweeps, "_residue_values", real)
        # one evaluation per (family, k) and verb, unless the grid is sliced
        assert (len(evaluations) == 8) == (guard is None)
    assert reports[:2] == reports[2:]
    assert all(r[4] and all(x["actual_cardinality"] is not None for x in r[4]) for r in reports)


# ---------- verify-coeff ----------


def test_verify_coeff_happy_path(tmp_path, capsys):
    cfg = write_config(tmp_path, {"n_max": 3, "sum_max": 3})
    out = tmp_path / "coeff.csv"
    code = cli.main(["verify-coeff", "--config", cfg, "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,k,q,N,closed_form,oracle,status"
    assert all(line.split(",")[6] == "ok" for line in lines[1:])
    err = capsys.readouterr().err
    assert "0 mismatches" in err


def test_verify_coeff_respects_k_cap_and_determinism(tmp_path):
    cfg = write_config(tmp_path, {"n_max": 4, "sum_max": 2, "k_max": 1})
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["verify-coeff", "--config", cfg, "--out", str(a)]) == 0
    assert cli.main(["verify-coeff", "--config", cfg, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    ks = {line.split(",")[1] for line in a.read_text().splitlines()[1:]}
    assert ks == {"1"}


def test_verify_coeff_guard_skips(tmp_path, capsys):
    # The guard counts distinct monomials met while multiplying, cancelled
    # ones included.  At 20, vandermonde(4) (24 terms) trips it, so every
    # n = 4 cell is skipped; at 100 it fits, and only the n = 4 products
    # with N >= 2 trip it.
    all_n4 = {(4, k, total) for k in range(1, 5) for total in range(5)}
    cases = [
        (
            "20",
            all_n4 | {(3, 1, 3), (3, 1, 4), (3, 2, 2), (3, 2, 3), (3, 2, 4), (3, 3, 2), (3, 3, 3), (3, 3, 4)},
            "verify-coeff: 53 identities checked, 0 mismatches, 367 skipped",
        ),
        (
            "100",
            {(4, k, total) for k in range(1, 5) for total in (2, 3, 4)},
            "verify-coeff: 160 identities checked, 0 mismatches, 260 skipped",
        ),
    ]
    cfg = write_config(tmp_path, {"n_max": 4, "sum_max": 4})
    out = tmp_path / "coeff.csv"
    for guard, skipped_cells, summary in cases:
        code = cli.main(["verify-coeff", "--config", cfg, "--out", str(out), "--guard-terms", guard])
        assert code == 0  # skipped identities are reported, not failed
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 420
        cells = {}
        for n, k, _q, total, _closed, _oracle, status in rows:
            cells.setdefault((int(n), int(k), int(total)), set()).add(status)
        assert {cell for cell, statuses in cells.items() if "skipped" in statuses} == skipped_cells
        # a cell is skipped or checked as a whole
        assert all(len(statuses) == 1 for statuses in cells.values())
        assert all(statuses == {"ok"} for cell, statuses in cells.items() if cell not in skipped_cells)
        assert capsys.readouterr().err.strip() == summary


def test_verify_coeff_rows_match_the_public_functions(tmp_path, capsys):
    # the verb reads each cell through the unchecked core and one packed
    # product per (n, k, N); cell by cell its rows are the checked public
    # closed form and expansion, or skipped where the expansion trips.  On
    # {5, 6} the expansion is the public product, formed once per (n, k, N)
    # and read by coefficient_of, as coefficient_by_expansion forms it per
    # cell, which would take seconds.
    @functools.lru_cache(maxsize=None)
    def product(n, k, total):
        return power_sum_pow(n, k, total).mul(vandermonde(n))

    # the pair chain of vandermonde(4) peaks at 32 monomials: at a guard of
    # 24 to 31 it trips, though its 24 terms would fit, and every n = 4 cell
    # is skipped; at 32 it is multiplied out and the N = 0 cells are checked
    runs = [({"n_max": 5, "sum_max": 6}, None)]
    runs += [({"n_max": 4, "sum_max": 4}, guard) for guard in (20, 24, 31, 32, 48, 49, 100)]
    for cfg, guard in runs:
        out = tmp_path / "coeff.csv"
        argv = ["verify-coeff", "--config", write_config(tmp_path, cfg), "--out", str(out)]
        assert cli.main(argv + ([] if guard is None else ["--guard-terms", str(guard)])) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        n4 = {(total, status) for n, _k, _q, total, _closed, _oracle, status in rows if n == "4"}
        if guard in (24, 31):
            assert {status for _total, status in n4} == {"skipped"}
        if guard == 32:
            assert ("0", "ok") in n4 and ("0", "skipped") not in n4
        cells = []
        for n, k, q, total, closed, oracle, status in rows:
            n, k, q, total = int(n), int(k), tuple(map(int, q.split(";"))), int(total)
            assert (len(q), sum(q)) == (n, total)
            cells.append((n, k, q))
            assert closed == str(coefficient_formula(q, k))
            if guard is None:
                want = (str(product(n, k, total).coefficient_of(target_monomial(q, k))), "ok")
            else:
                try:
                    want = (str(coefficient_by_expansion(q, k, max_terms=guard)), "ok")
                except ExpansionTooLarge:
                    want = ("", "skipped")
            assert (oracle, status) == want, (guard, n, k, q)
        every = [
            (n, k, q)
            for n in range(1, cfg["n_max"] + 1)
            for k in range(1, n + 1)
            for total in range(cfg["sum_max"] + 1)
            for q in sorted(c for c in itertools.product(range(total + 1), repeat=n) if sum(c) == total)
        ]
        assert cells == every
        assert len(cells) == (3465 if guard is None else 420)
    capsys.readouterr()


def test_verify_coeff_reports_are_pinned(tmp_path, capsys):
    # sha256 of the CSV and of the summary line on {5, 6}, at the default
    # guard and at three guards that skip some cells: however the oracles
    # and closed forms are computed, the reports may not change by a byte
    pinned = {
        None: (
            "e0327a5178d8e3beac554d62578c52464e2344f827942c89def68580b3590d1b",
            "32700e8d3bb999e438ce5905820bc91fe32bde4baae35180612d29c4b25364ba",
        ),
        20: (
            "ed8ef5278e30ff029e8ff375f226e937bd6487709ee82eda309c25881443bd04",
            "baa24bfede498ad835f351ba1cf437af64767d15bd21a987ff8f3ccf41f151e3",
        ),
        100: (
            "a942f059913e6890527d190708c51ff62efa9cf081234f5def8e5a4f77826bbb",
            "520cb73227f21f4a3bf0e9121cc8d62df4bbcc6a14e28e81895d90b214c6bad0",
        ),
        1000: (
            "902f03ade91561addb5e1d929102baa91baa58c86f1722f69444a351aac86623",
            "7c1ed1ed0e0ab9268e17328a31d20d943005d53326cc4156452040188fdae808",
        ),
    }
    cfg = write_config(tmp_path, {"n_max": 5, "sum_max": 6})
    out = tmp_path / "coeff.csv"
    for guard, (csv_digest, summary_digest) in pinned.items():
        argv = ["verify-coeff", "--config", cfg, "--out", str(out)]
        assert cli.main(argv + ([] if guard is None else ["--guard-terms", str(guard)])) == 0
        summary = capsys.readouterr().err.strip()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_digest, guard
        assert hashlib.sha256(summary.encode()).hexdigest() == summary_digest, (guard, summary)


def test_verify_coeff_is_exact_past_int64_multinomials(tmp_path, capsys):
    # 21! and 22! are past 2**63, so the sums 21 and 22 divide factorials
    # held as Python ints
    out = tmp_path / "coeff.csv"
    cfg = write_config(tmp_path, {"n_max": 2, "sum_max": 22})
    assert cli.main(["verify-coeff", "--config", cfg, "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 23 + 2 * sum(total + 1 for total in range(23))
    for _n, k, q, _total, closed, oracle, status in rows:
        q, k = tuple(map(int, q.split(";"))), int(k)
        want = str(coefficient_formula(q, k))
        assert (closed, oracle, status) == (want, want, "ok"), (q, k)
        assert oracle == str(coefficient_by_expansion(q, k))
    for k in (1, 2):
        assert power_sum_pow(2, k, 22) == power_sum_pow(2, k, 22, method="pow")
    assert capsys.readouterr().err.strip() == "verify-coeff: 575 identities checked, 0 mismatches, 0 skipped"


def test_verify_coeff_mismatch_exits_2(tmp_path, monkeypatch, capsys):
    from restrictedsums import coeff as coeff_module

    real = coeff_module._closed_forms
    monkeypatch.setattr(coeff_module, "_closed_forms", lambda qs, k: [form + 1 for form in real(qs, k)])
    cfg = write_config(tmp_path, {"n_max": 2, "sum_max": 1})
    code = cli.main(["verify-coeff", "--config", cfg, "--out", str(tmp_path / "c.csv")])
    assert code == 2
    assert "mismatches" in capsys.readouterr().err


# ---------- example41 ----------


def test_example41_report_row(tmp_path, capsys):
    cfg = write_config(tmp_path, {"n": 2, "k": 2, "q": 2, "r": 1})
    out = tmp_path / "e.csv"
    code = cli.main(["example41", "--config", cfg, "--out", str(out)])
    assert code == 0
    assert "formula 4, enumerated 4" in capsys.readouterr().err
    row = out.read_text().splitlines()[1].split(",")
    assert row[0] == "integers"
    assert row[1] == "inf"
    assert row[4] == "5"  # |A| = k*q + r
    assert row[6] == row[7] == "4"


def test_example41_config_route(tmp_path, capsys):
    cfg = write_config(tmp_path, {"n": 3, "k": 2, "q": 3, "r": 0})
    assert cli.main(["example41", "--config", cfg, "--out", str(tmp_path / "e.csv")]) == 0
    capsys.readouterr()


def test_example41_errors(tmp_path, capsys):
    def run(cfg):
        return cli.main(["example41", "--config", write_config(tmp_path, cfg)])

    # infeasible profile: not enough roots
    assert run({"n": 6, "k": 2, "q": 2, "r": 1}) == 1
    # incomplete profile
    assert run({"n": 2, "k": 2}) == 1
    # r >= k
    assert run({"n": 2, "k": 2, "q": 2, "r": 2}) == 1
    capsys.readouterr()


def test_example41_refuses_a_profile_past_the_guard(tmp_path, capsys):
    def run(cfg, *guard):
        return cli.main(["example41", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "e.csv"), *guard])

    # about 1.02e9 multiplicity vectors: refused before any is visited
    assert run({"n": 50, "k": 10, "q": 10, "r": 0}) == 1
    assert capsys.readouterr().err == (
        f"error: profile spans 1018872811 multiplicity vectors, guard is {DEFAULT_TUPLE_GUARD}\n"
    )
    # 6,435 vectors, though its caps allow 9^8 takes
    small = {"n": 8, "k": 8, "q": 8, "r": 0}
    assert run(small) == 0
    assert capsys.readouterr().err == "example41: formula 57, enumerated 57\n"
    assert run(small, "--guard-tuples", "6434") == 1
    assert capsys.readouterr().err == "error: profile spans 6435 multiplicity vectors, guard is 6434\n"
    assert run(small, "--guard-tuples", "6435") == 0
    capsys.readouterr()


def test_example41_refuses_a_huge_profile_at_once(tmp_path, capsys):
    # 100 roots at each of 400 targets, 10,000 chosen: a count of 730
    # digits, refused from its closed form before any vector is visited
    cfg = write_config(tmp_path, {"n": 10000, "k": 100, "q": 400, "r": 0})
    assert cli.main(["example41", "--config", cfg, "--out", str(tmp_path / "e.csv")]) == 1
    err = capsys.readouterr().err
    match = re.fullmatch(rf"error: profile spans (\d+) multiplicity vectors, guard is {DEFAULT_TUPLE_GUARD}\n", err)
    count = match.group(1)
    assert (len(count), count[:20], count[-20:]) == (730, "16459158828477142034", "72229531272591427836")
    assert hashlib.sha256(count.encode()).hexdigest() == (
        "f003baea47b2f30e88fcbf0b598d1a2acbc6c9e1a16c7f31c0541666053fc508"
    )


def test_example41_counts_the_vectors_once(tmp_path, monkeypatch, capsys):
    from restrictedsums import enumeration

    calls = []
    vectors = enumeration.MultiplicityProfile.vectors.func

    def counted(profile):
        calls.append(profile)
        return vectors(profile)

    counted_property = functools.cached_property(counted)
    counted_property.__set_name__(enumeration.MultiplicityProfile, "vectors")
    monkeypatch.setattr(enumeration.MultiplicityProfile, "vectors", counted_property)
    cfg = write_config(tmp_path, {"n": 8, "k": 8, "q": 8, "r": 0})
    assert cli.main(["example41", "--config", cfg, "--out", str(tmp_path / "e.csv")]) == 0
    assert len(calls) == 1
    assert cli.main(["example41", "--config", cfg, "--guard-tuples", "6434"]) == 1
    assert len(calls) == 2
    capsys.readouterr()


def test_example41_broken_invariant_exits_2(tmp_path, monkeypatch, capsys):
    def broken(n, k, q, r):
        raise InternalInvariantBroken("main term not divisible by k")

    monkeypatch.setattr(cli, "roots_model_cardinality", broken)
    cfg = write_config(tmp_path, {"n": 2, "k": 2, "q": 2, "r": 1})
    assert cli.main(["example41", "--config", cfg]) == 2
    assert "theorem assertion violated" in capsys.readouterr().err


# ---------- proof-replay ----------


def replay_config(tmp_path, **overrides):
    cfg = {
        "family": {"field": "gf(11)", "sets": [[0, 1, 2, 3, 4]] * 3},
        "k": 2,
    }
    cfg.update(overrides)
    return write_config(tmp_path, cfg, "replay.json")


def test_proof_replay_happy_path(tmp_path, capsys):
    cfg = replay_config(tmp_path)
    out = tmp_path / "replay.json.out"
    code = cli.main(["proof-replay", "--config", cfg, "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["h"] == "3"
    assert payload["N"] == 4
    assert payload["q"] == [1, 1, 1]
    assert payload["shrunk_sizes"] == [3, 4, 5]
    assert payload["witness"] is not None
    assert "N=4, h=3" in capsys.readouterr().err


def test_proof_replay_jsonl_mirror(tmp_path, capsys):
    cfg = replay_config(tmp_path)
    out, jsonl = tmp_path / "r.json", tmp_path / "r.jsonl"
    assert cli.main(["proof-replay", "--config", cfg, "--out", str(out)]) == 0
    alone = out.read_bytes()
    assert cli.main(["proof-replay", "--config", cfg, "--out", str(out), "--jsonl", str(jsonl)]) == 0
    assert out.read_bytes() == alone
    # one line: the --out record with sorted keys and no indentation
    record = json.loads(alone)
    assert jsonl.read_text() == json.dumps(record, sort_keys=True) + "\n"
    capsys.readouterr()


def test_proof_replay_stdout_and_determinism(tmp_path, capsys):
    cfg = replay_config(tmp_path)
    assert cli.main(["proof-replay", "--config", cfg]) == 0
    first = capsys.readouterr().out
    assert cli.main(["proof-replay", "--config", cfg]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert json.loads(first)["h_element"] == "3"


def test_proof_replay_witness_off(tmp_path, capsys):
    cfg = replay_config(tmp_path, witness=False)
    out = tmp_path / "r.json"
    assert cli.main(["proof-replay", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["value_count"] is None
    assert payload["witness"] is None
    capsys.readouterr()


def test_proof_replay_expanded_certificate(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "family": {"field": "gf(5)", "sets": [[0, 1, 2], [0, 1, 2, 3]]},
            "k": 2,
            "expand_certificate": True,
        },
    )
    out = tmp_path / "r.json"
    assert cli.main(["proof-replay", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    cert = payload["cn_certificate"]
    assert cert["coefficient"] == "2"
    assert cert["nonzero"] is True
    assert cert["witness"] is not None
    capsys.readouterr()


# sha256 of the --out JSON, None where the replay stops, and of the stderr
# line of expanded replays, at the default guard and four --guard-terms:
# however the contradiction polynomial is multiplied and read, the replay
# and every guard trip keep their bytes
REPLAY_PINS = {
    "gf13-k1": (
        {"family": {"field": "gf(13)", "sets": [list(range(s)) for s in (5, 6, 7, 8)]}, "k": 1},
        {
            None: (
                "9a2a91b2b9ddfdc764ce0ae06698471aba8342fbc1162c6e568ca262b104fdd3",
                "013cd7944b7e4e4f0c4429ab78cfe64356ee8814ba4feb6695ffc540c2ff76d0",
            ),
            10: (None, "40226eac4623c36f9c25b96df8e7ca5fb0fb0b47cc0b6cecf5c7121512cdf629"),
            50: (None, "40f1b8b8fcf8280670ceaa56d2b95062c35001ccdbc71ac8d782bd7ddf74f8d7"),
            200: (None, "355d2cc7ae53361df903efade8ed4d7510b643084a9bbd3e1dca7266f9beff97"),
            1000: (None, "d68d09513b044f9e986fa5cb3c63055f8b904a1bc57d4b0320f48d45f72147b2"),
        },
    ),
    "gf11-k2": (
        {"family": {"field": "gf(11)", "sets": [[0, 1, 2, 3, 4]] * 3}, "k": 2},
        {
            10: (None, "2df512d7d50ccb8a5c6e8ed66ebf3c77eb1b7358a6ac07c0c0e4791bf763b149"),
            50: (None, "b0abf138d47185d8fd3fba72cc325fee82453750e036c71233be90bbe43a2866"),
            **dict.fromkeys(
                (None, 200, 1000),
                (
                    "3faf12e622b81bcfcd86710f46cb76f1cce780d683da2bade8c656304bac2f7c",
                    "0332a662bad385258eb17ff9e03de8d8603602ebcfaccd653ed9c09dcf1bcdb1",
                ),
            ),
        },
    ),
    "rational-tail": (
        {
            "family": {"field": "rational", "sets": [[0, 1, "1/2"], [0, 1, 5, "-2/3"], [-1, 2, 4, 7, "3/4"]]},
            "k": 2,
            "tail": "x1 - 2*x3 + 1",
        },
        {
            10: (None, "43d11be05b92d66125755570c71baa9c80167e67f5b498c8bff776856e73ca57"),
            50: (None, "cf6e31d5b1d979bf35c927c880469c839e6cf4f900d54aba10db8555cc5f079c"),
            **dict.fromkeys(
                (None, 200, 1000),
                (
                    "f74488794d8003204bc7511b10309b37b42a2e032bb7ba1a93b20a5434ddd5b8",
                    "6c4ad18d0908d047aeec9a2fbc330d89fbbd3f72776b44b63b2f0f4a57f4462a",
                ),
            ),
        },
    ),
}


@pytest.mark.parametrize("name", REPLAY_PINS)
def test_proof_replay_expanded_reports_are_pinned(tmp_path, capsys, name):
    family, pinned = REPLAY_PINS[name]
    cfg = write_config(tmp_path, {**family, "expand_certificate": True})
    for guard, (out_digest, err_digest) in pinned.items():
        out = tmp_path / f"replay-{guard}.json"
        argv = ["proof-replay", "--config", cfg, "--out", str(out)]
        code = cli.main(argv + ([] if guard is None else ["--guard-terms", str(guard)]))
        err = capsys.readouterr().err.strip()
        assert code == (1 if out_digest is None else 0), (guard, err)
        assert (hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None) == out_digest, guard
        assert hashlib.sha256(err.encode()).hexdigest() == err_digest, (guard, err)
        if out_digest is None:
            assert err.startswith(f"error: product exceeds {guard} terms ("), err


def test_proof_replay_past_the_tuple_guard(tmp_path, capsys):
    # the shrunk sizes 5, 6, 7, 8 span 1680 tuples: past a guard of 30 the
    # expanded certificate fails, and the witness alone is skipped and said so
    family = {"field": "gf(13)", "sets": [list(range(s)) for s in (6, 7, 8, 8)]}
    cfg = write_config(tmp_path, {"family": family, "k": 2, "expand_certificate": True})
    assert cli.main(["proof-replay", "--config", cfg, "--guard-tuples", "30"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: family spans 1680 tuples, guard is 30\n"
    cfg = write_config(tmp_path, {"family": family, "k": 2}, "witness.json")
    assert cli.main(["proof-replay", "--config", cfg, "--guard-tuples", "30"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["witness"] is None
    assert captured.err.endswith("(nonzero), witness skipped by the tuple guard\n")


def test_proof_replay_rational_family(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "family": {"field": "rational", "sets": [[0, 1, "1/2", 3], [0, 1, 5]]},
            "k": 2,
        },
    )
    assert cli.main(["proof-replay", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 0
    capsys.readouterr()


def test_proof_replay_hypothesis_failure_exits_1(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"family": {"field": "gf(7)", "sets": [[0, 1, 2]]}, "k": 2},  # k > n
    )
    assert cli.main(["proof-replay", "--config", cfg]) == 1
    cfg2 = write_config(
        tmp_path,
        {"family": {"field": "gf(7)", "sets": [[0], [0, 1]]}, "k": 1, "witness": "yes"},
        "w.json",
    )
    assert cli.main(["proof-replay", "--config", cfg2]) == 1
    capsys.readouterr()
