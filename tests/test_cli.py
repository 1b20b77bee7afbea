"""Command-line interface: configs, report formats, determinism, exit codes."""

import json

import pytest

from restrictedsums import BoundResult, bounds as bounds_module
from restrictedsums import cli

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
        "tightness: 24 rows, 0 tight, 24 skipped by the tuple guard, 0 violations"
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
    cfg = write_config(tmp_path, {"n_max": 4, "sum_max": 4})
    out = tmp_path / "coeff.csv"
    code = cli.main(["verify-coeff", "--config", cfg, "--out", str(out), "--guard-terms", "20"])
    assert code == 0  # skipped identities are reported, not failed
    statuses = {line.split(",")[6] for line in out.read_text().splitlines()[1:]}
    assert "skipped" in statuses
    assert "mismatch" not in statuses
    capsys.readouterr()


def test_verify_coeff_mismatch_exits_2(tmp_path, monkeypatch, capsys):
    from restrictedsums import coeff as coeff_module

    real = coeff_module.coefficient_formula
    monkeypatch.setattr(cli, "coefficient_formula", lambda q, k: real(q, k) + 1)
    cfg = write_config(tmp_path, {"n_max": 2, "sum_max": 1})
    code = cli.main(["verify-coeff", "--config", cfg, "--out", str(tmp_path / "c.csv")])
    assert code == 2
    assert "mismatches" in capsys.readouterr().err


# ---------- example41 ----------


def test_example41_flags(tmp_path, capsys):
    out = tmp_path / "e.csv"
    code = cli.main(
        ["example41", "--n", "2", "--k", "2", "--q", "2", "--r", "1", "--out", str(out)]
    )
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
    # infeasible profile: not enough roots
    assert cli.main(["example41", "--n", "6", "--k", "2", "--q", "2", "--r", "1"]) == 1
    # incomplete flags
    assert cli.main(["example41", "--n", "2", "--k", "2"]) == 1
    # r >= k
    assert cli.main(["example41", "--n", "2", "--k", "2", "--q", "2", "--r", "2"]) == 1
    capsys.readouterr()


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
