"""The benchmark's checkers accept the program's real outputs and reject
corrupted copies of them.

    python3 -m pytest bench/tests -q
"""

import copy
import itertools
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
import restrictedsums as rs  # noqa: E402
import restrictedsums.cli  # noqa: E402,F401  (workloads reach the CLI as rs.cli)
from checks import CheckFailed  # noqa: E402


# ---------- the independent computations ----------


def test_value_counts_by_hand():
    assert checks.value_count_mod_p(5, [[0, 1], [0, 1]], 1, (1, 1), [], restricted=True) == 1
    assert checks.value_count_mod_p(5, [[0, 1], [0, 1]], 1, (1, 1), [], restricted=False) == 3
    # x^2 + y^2 over {-1, 1/2} x {-1, 1/2}, distinct coordinates: one value
    assert checks.value_count_rational([["-1", "1/2"], ["-1", "1/2"]], 2, [], restricted=True) == 1
    # adding the tail x1 separates the two orders
    assert checks.value_count_rational([["-1", "1/2"], ["-1", "1/2"]], 2, [(1, (1, 0))]) == 2


def test_leibniz_coefficient_by_hand():
    # (x2 - x1): coefficient of x2 is 1
    assert checks.leibniz_coefficient((0, 0), 1) == 1
    # (x1 + x2)(x2 - x1) = x2^2 - x1^2: no x1*x2 term
    assert checks.leibniz_coefficient((1, 0), 1) == 0
    # (x1 + x2)^2 (x2 - x1): coefficient of x1^2 x2 is 1 - 2 = -1
    assert checks.leibniz_coefficient((2, 0), 1) == -1
    for q, k in [((1, 2, 0), 2), ((2, 1, 1, 0), 3), ((1, 1, 1, 1, 1), 2)]:
        assert checks.leibniz_coefficient(q, k) == rs.coefficient_formula(q, k)


def test_coefficient_row_count_matches_weak_compositions():
    want = sum(
        sum(1 for q in itertools.product(range(total + 1), repeat=n) if sum(q) == total)
        for n in range(1, 6)
        for _k in range(1, n + 1)
        for total in range(7)
    )
    assert checks.coefficient_row_count(5, 6) == want == 3465


# ---------- real outputs, then corrupted copies ----------


@pytest.fixture
def scan_output(tmp_path):
    scan = workloads.Scan(rs, 7, str(tmp_path), sizes=(3, 4, 5), pool=2)
    code, summary = scan.run(0)
    out, jsonl = scan._paths(0)
    spec = dict(scan.inputs[0], counts=scan.brute_counts(0))
    rows = workloads._read_csv(out)
    records = workloads._read_jsonl(jsonl)
    checks.check_scan_report(spec, spec["verb"], code, rows, records, summary)
    return spec, code, rows, records, summary


def test_scan_check_rejects_lowered_cardinality(scan_output):
    spec, code, rows, records, summary = scan_output
    bad_rows, bad_records = copy.deepcopy(rows), copy.deepcopy(records)
    victim = next(i for i, r in enumerate(bad_rows) if r["hypotheses_ok"] == "false" or
                  int(r["actual_cardinality"]) > int(r["bound_value"]))
    lowered = int(bad_rows[victim]["actual_cardinality"]) - 1
    bad_rows[victim]["actual_cardinality"] = str(lowered)
    bad_records[victim]["actual_cardinality"] = lowered
    with pytest.raises(CheckFailed, match="brute force"):
        checks.check_scan_report(spec, spec["verb"], code, bad_rows, bad_records, summary)


def test_scan_check_rejects_dropped_row(scan_output):
    spec, code, rows, records, summary = scan_output
    with pytest.raises(CheckFailed, match="rows, expected"):
        checks.check_scan_report(spec, spec["verb"], code, rows[:-1], records[:-1], summary)


def test_scan_check_rejects_vacuous_summary(scan_output):
    spec, code, rows, records, summary = scan_output
    assert spec["verb"] == "verify-bounds"
    numbers = checks.parse_summary(summary, "verify-bounds")
    vacuous = f"verify-bounds: {numbers[0]} rows, 0 checked, all bounds hold"
    with pytest.raises(CheckFailed, match="summary"):
        checks.check_scan_report(spec, spec["verb"], code, rows, records, vacuous)


@pytest.fixture
def replay_output(tmp_path):
    shapes = ((13, 3, 1, (6, 7, 8)),)
    cert = workloads.Certify(rs, 3, str(tmp_path), n_max=3, sum_max=3, shapes=shapes, pool=2)
    codes = cert.run(0) + cert.run(1)
    cert.check(0, codes[:1])
    cert.check(1, codes[1:])
    p, k, sets, _path = cert.inputs[1]["replays"][0]
    with open(cert._out(1, 0)) as handle:
        payload = json.load(handle)
    table = workloads._read_csv(cert._out(0))
    return codes, payload, p, sets, k, table


def test_replay_check_rejects_repeated_coordinate(replay_output):
    codes, payload, p, sets, k, _table = replay_output
    bad = copy.deepcopy(payload)
    point = bad["witness"]["point"]
    point[1] = point[0]
    with pytest.raises(CheckFailed, match="repeats a coordinate"):
        checks.check_replay(codes[1], bad, p, sets, k)


def test_replay_check_rejects_excluded_witness_value(replay_output):
    codes, payload, p, sets, k, _table = replay_output
    bad = copy.deepcopy(payload)
    bad["witness"]["excluded_values"][0] = bad["witness"]["value"]
    with pytest.raises(CheckFailed):
        checks.check_replay(codes[1], bad, p, sets, k)


def test_replay_check_rejects_wrong_h(replay_output):
    codes, payload, p, sets, k, _table = replay_output
    bad = copy.deepcopy(payload)
    bad["h"] = str(int(bad["h"]) * p)
    with pytest.raises(CheckFailed, match="h ="):
        checks.check_replay(codes[1], bad, p, sets, k)


def test_coefficient_check_rejects_flipped_sign(replay_output):
    codes, _payload, _p, _sets, _k, table = replay_output
    checks.check_coefficient_table(codes[0], table, 3, 3, range(len(table)))
    victim = next(i for i, r in enumerate(table) if int(r["closed_form"]) != 0)
    bad = copy.deepcopy(table)
    # flip both columns, so only the Leibniz expansion can tell
    for column in ("closed_form", "oracle"):
        bad[victim][column] = str(-int(bad[victim][column]))
    with pytest.raises(CheckFailed, match="Leibniz"):
        checks.check_coefficient_table(codes[0], bad, 3, 3, [victim])


def test_lattice_check_rejects_lowered_minimum(tmp_path):
    sweep = workloads.Sweep(rs, 5, None, p=5, n=3)
    output = sweep.run(0)
    sweep.check(0, output)
    min_card, checked, violations = output
    bad = min_card.copy()
    bad[(5, 5, 5)] -= 1
    with pytest.raises(CheckFailed):
        sweep.check(0, (bad, checked, violations))
    with pytest.raises(CheckFailed, match="profiles checked"):
        sweep.check(0, (min_card, checked - 1, violations))
