"""End-to-end CLI runs through main(argv): reports, files, exit codes."""

import csv
import io
import json
import math

import pytest

from covsketch import (CoverageInstance, SketchParams, brute_force_kcover,
                       build_sketch_from_stream, greedy_setcover, load_sketch,
                       random_edge_stream, read_metadata)
from covsketch.cli import main
from covsketch.harness import SEED_BUILDER, SEED_GENERATOR, EVAL_CSV_HEADER
from covsketch.hashing import derive_seed


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    assert code == 0, err
    return json.loads(out)


def _gen_instance(seed, n, m, p):
    stream_seed = derive_seed(seed, SEED_GENERATOR)
    return CoverageInstance.from_edges(
        n, m, random_edge_stream(n, m, p, stream_seed))


# ---------------------------------------------------------------------------
# gen


def test_gen_writes_edges_and_sidecar(tmp_path, capsys):
    out = tmp_path / "edges.txt"
    payload = run_json(capsys, "gen", "--gen", "random:n=5,m=20,p=0.3",
                       "--seed", "3", "--out", str(out))
    meta = read_metadata(str(out) + ".meta.json")
    assert meta["n"] == 5 and meta["m"] == 20
    assert payload["params"]["edge_count"] == meta["edge_count"]
    lines = out.read_text().splitlines()
    assert len(lines) == meta["edge_count"]
    inst = _gen_instance(3, 5, 20, 0.3)
    assert [tuple(map(int, ln.split())) for ln in lines] == \
        list(inst.edges_by_element())


def test_gen_binary_round_trip(tmp_path, capsys):
    text_out = tmp_path / "e.txt"
    bin_out = tmp_path / "e.bin"
    run_json(capsys, "gen", "--gen", "random:n=4,m=15,p=0.4", "--seed", "1",
             "--out", str(text_out))
    run_json(capsys, "gen", "--gen", "random:n=4,m=15,p=0.4", "--seed", "1",
             "--out", str(bin_out), "--format", "binary")
    from covsketch import load_edges
    with open(bin_out, "rb") as fp:
        bin_edges = list(load_edges(fp, "binary"))
    with open(text_out) as fp:
        text_edges = list(load_edges(fp, "text"))
    assert bin_edges == text_edges


def test_gen_disjoint_spec(tmp_path, capsys):
    out = tmp_path / "d.txt"
    payload = run_json(capsys, "gen", "--gen", "disjoint:n=4,a=1|2,b=2",
                       "--out", str(out))
    assert payload["params"]["m"] == 2
    assert out.read_text().splitlines() == ["1 0", "2 0", "2 1"]


# ---------------------------------------------------------------------------
# build-sketch


def test_build_sketch_full_retention_stats(tmp_path, capsys):
    out = tmp_path / "sk.bin"
    payload = run_json(capsys, "build-sketch", "--gen", "random:n=6,m=40,p=0.3",
                       "--k", "2", "--seed", "5", "--out", str(out))
    stats = payload["sketch_stats"]
    inst = _gen_instance(5, 6, 40, 0.3)
    assert stats["p_star"] == 1.0
    assert stats["retained_elements"] == 40
    assert stats["retained_edges"] == inst.edge_count
    assert stats["input_edges"] == inst.edge_count
    assert stats["space_units"] == stats["retained_elements"] + stats["retained_edges"]
    assert out.stat().st_size == stats["bytes_written"]
    with open(out, "rb") as fp:
        sk = load_sketch(fp)
    assert sk.element_count == 40


def test_build_sketch_deterministic_bytes(tmp_path, capsys):
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    for out in (a, b):
        run_json(capsys, "build-sketch", "--gen", "random:n=6,m=40,p=0.3",
                 "--k", "2", "--seed", "9", "--out", str(out))
    assert a.read_bytes() == b.read_bytes()


def test_build_sketch_custom_budget_window(tmp_path, capsys):
    out = tmp_path / "sk.bin"
    payload = run_json(capsys, "build-sketch", "--gen", "random:n=8,m=200,p=0.25",
                       "--k", "3", "--seed", "2", "--out", str(out),
                       "--degree-cap", "8", "--edge-budget", "50")
    stats = payload["sketch_stats"]
    assert 50 <= stats["retained_edges"] <= 58
    assert stats["p_star"] < 1.0
    # the written sketch equals an in-process rebuild at the same derived seed
    params = SketchParams.custom(n=8, k=3, eps=0.2, degree_cap=8,
                                 edge_budget=50, m_hint=200)
    inst = _gen_instance(2, 8, 200, 0.25)
    rebuilt = build_sketch_from_stream(inst.edges_by_element(), params,
                                       derive_seed(2, SEED_BUILDER))
    with open(out, "rb") as fp:
        assert load_sketch(fp) == rebuilt


def test_build_sketch_budget_flags_must_pair(tmp_path, capsys):
    code, _, err = run(capsys, "build-sketch", "--gen", "random:n=4,m=10,p=0.5",
                       "--k", "1", "--out", str(tmp_path / "x.bin"),
                       "--degree-cap", "4")
    assert code == 2
    assert "together" in err


def test_build_sketch_from_file_with_sidecar(tmp_path, capsys):
    edges = tmp_path / "edges.txt"
    run_json(capsys, "gen", "--gen", "random:n=5,m=30,p=0.3", "--seed", "7",
             "--out", str(edges))
    out = tmp_path / "sk.bin"
    payload = run_json(capsys, "build-sketch", "--input", str(edges),
                       "--k", "2", "--seed", "7", "--out", str(out))
    assert payload["params"]["n"] == 5
    assert payload["notes"] == []


def test_build_sketch_scans_shape_when_unknown(tmp_path, capsys):
    edges = tmp_path / "bare.txt"
    edges.write_text("0 0\n1 1\n2 2\n")
    out = tmp_path / "sk.bin"
    payload = run_json(capsys, "build-sketch", "--input", str(edges),
                       "--k", "1", "--out", str(out))
    assert payload["params"]["n"] == 3
    assert any("scan" in note for note in payload["notes"])
    assert payload["passes"] == 2


BUILDER_STATS_KEYS = {"seen_edges", "dropped_on_sight", "dropped_duplicate_or_cap",
                      "evicted_elements", "evicted_edges", "budget_bound",
                      "threshold"}


def test_build_sketch_report_schema(tmp_path, capsys):
    payload = run_json(capsys, "build-sketch", "--gen", "random:n=8,m=200,p=0.25",
                       "--k", "3", "--seed", "2", "--out", str(tmp_path / "sk.bin"),
                       "--degree-cap", "2", "--edge-budget", "50")
    stats = payload["sketch_stats"]
    assert set(stats) == {"degree_cap", "edge_budget", "p_star",
                          "retained_elements", "retained_edges", "space_units",
                          "input_edges", "bytes_written", "out", "builder"}
    builder = stats["builder"]
    assert set(builder) == BUILDER_STATS_KEYS
    assert builder["seen_edges"] == stats["input_edges"]
    assert builder["budget_bound"] is True
    assert builder["threshold"] == stats["p_star"] < 1.0
    assert builder["evicted_elements"] > 0
    assert builder["dropped_duplicate_or_cap"] > 0


def test_kcover_report_schema(capsys):
    payload = run_json(capsys, "kcover", "--gen", "random:n=6,m=40,p=0.3",
                       "--k", "2", "--seed", "5")
    assert set(payload["sketch_stats"]) == {"builder"}
    builder = payload["sketch_stats"]["builder"]
    assert set(builder) == BUILDER_STATS_KEYS
    assert builder["budget_bound"] is False and builder["threshold"] == 1.0
    assert builder["evicted_edges"] == 0
    assert "builder_stats" not in payload["solutions"][0]["params"]


# ---------------------------------------------------------------------------
# kcover


def test_kcover_disjointness_intersecting(capsys):
    payload = run_json(capsys, "kcover", "--gen", "disjoint:n=4,a=1|2,b=2",
                       "--k", "1", "--with-opt")
    sol = payload["solutions"][0]
    assert sol["covered"] == 2
    assert payload["true_values"]["opt"]["value"] == 2
    assert payload["params"]["ratio"] == "1.0000"
    assert payload["true_values"]["true_coverage"]["value"] == 2


def test_kcover_disjointness_disjoint(capsys):
    payload = run_json(capsys, "kcover", "--gen", "disjoint:n=4,a=0,b=3",
                       "--k", "1", "--with-opt")
    assert payload["true_values"]["opt"]["value"] == 1
    assert payload["solutions"][0]["covered"] == 1


def test_kcover_matches_library_call(capsys):
    payload = run_json(capsys, "kcover", "--gen", "random:n=8,m=40,p=0.3",
                       "--k", "3", "--seed", "6")
    inst = _gen_instance(6, 8, 40, 0.3)
    from covsketch import kcover_via_sketch
    sol = kcover_via_sketch(inst.edges_by_element(), 8, 3, 0.6,
                            derive_seed(6, SEED_BUILDER), m_hint=40)
    assert payload["solutions"][0]["chosen"] == list(sol.chosen)
    assert payload["true_values"]["true_coverage"]["value"] == \
        inst.coverage(sol.chosen)


def test_kcover_from_stdin_single_pass(capsys, monkeypatch):
    import sys
    monkeypatch.setattr(sys, "stdin", io.StringIO("0 0\n1 1\n2 2\n"))
    payload = run_json(capsys, "kcover", "--input", "-", "--n", "3", "--k", "2")
    assert payload["solutions"][0]["covered"] == 2
    assert any("not replayable" in note for note in payload["notes"])
    assert "true_coverage" not in payload["true_values"]


def test_kcover_text_report(capsys):
    code, out, err = run(capsys, "kcover", "--gen", "random:n=5,m=20,p=0.4",
                         "--k", "2")
    assert code == 0
    assert "command" in out and "kcover" in out
    assert "chosen" in out


# ---------------------------------------------------------------------------
# setcover-outliers


def test_outliers_covers_enough(capsys):
    lam = math.exp(-1)
    payload = run_json(capsys, "setcover-outliers", "--gen",
                       "random:n=8,m=50,p=0.3", "--lambda", str(lam),
                       "--seed", "4", "--with-opt")
    fraction = float(payload["params"]["true_covered_fraction"])
    assert fraction >= 1.0 - lam - 1e-9
    # one ladder pass plus one oracle recount; --with-opt reads a third time
    assert payload["passes"] == 3
    assert payload["true_values"]["opt_size"]["value"] >= 1


def test_outliers_report_schema(capsys):
    payload = run_json(capsys, "setcover-outliers", "--gen",
                       "random:n=8,m=50,p=0.3", "--lambda", str(math.exp(-1)),
                       "--seed", "4")
    assert payload["passes"] == 2    # the whole ladder, plus the oracle recount
    assert "mode" not in payload["params"]
    assert set(payload["sketch_stats"]) == {"builder"}
    builder = payload["sketch_stats"]["builder"]
    assert set(builder) == BUILDER_STATS_KEYS
    stream = random_edge_stream(8, 50, 0.3, derive_seed(4, SEED_GENERATOR))
    assert builder["seen_edges"] == len(list(stream))
    assert builder["budget_bound"] is False and builder["threshold"] == 1.0
    assert builder["evicted_edges"] == 0
    assert "builder_stats" not in payload["solutions"][0]["params"]


def test_outliers_stdin_requires_parallel(capsys, monkeypatch):
    # stdin once needed --parallel; the one-pass ladder reads it with no
    # flag, and the flag itself is gone
    import sys
    monkeypatch.setattr(sys, "stdin", io.StringIO("0 0\n1 1\n"))
    code, out, err = run(capsys, "setcover-outliers", "--input", "-", "--n",
                         "2", "--lambda", str(math.exp(-1)), "--json")
    assert code == 0, err
    assert json.loads(out)["passes"] == 1
    monkeypatch.setattr(sys, "stdin", io.StringIO("0 0\n1 1\n"))
    code, _, err = run(capsys, "setcover-outliers", "--input", "-", "--n", "2",
                       "--lambda", str(math.exp(-1)), "--parallel")
    assert code == 2
    assert "unrecognized arguments: --parallel" in err


def test_outliers_stdin_parallel_works(capsys, monkeypatch):
    # every ladder level is served side by side from one pass over stdin
    import sys
    monkeypatch.setattr(sys, "stdin", io.StringIO("0 0\n0 1\n1 2\n"))
    payload = run_json(capsys, "setcover-outliers", "--input", "-", "--n", "2",
                       "--lambda", str(math.exp(-1)))
    assert payload["solutions"][0]["chosen"]
    assert payload["passes"] == 1
    assert payload["sketch_stats"]["builder"]["seen_edges"] == 3
    assert any("not replayable" in note for note in payload["notes"])


def test_outliers_lambda_domain(capsys):
    code, _, err = run(capsys, "setcover-outliers", "--gen",
                       "random:n=4,m=10,p=0.5", "--lambda", "0.5")
    assert code == 2
    assert "1/e" in err


# ---------------------------------------------------------------------------
# setcover-multipass


def test_multipass_r1_matches_classic_greedy(capsys):
    payload = run_json(capsys, "setcover-multipass", "--gen",
                       "random:n=9,m=30,p=0.3", "--r", "1", "--seed", "2")
    inst = _gen_instance(2, 9, 30, 0.3)
    classic = greedy_setcover(inst)
    assert payload["solutions"][0]["chosen"] == list(classic.chosen)
    assert payload["params"]["algorithm_passes"] == 1
    assert payload["passes"] == 2    # algorithm + oracle recount
    assert payload["true_values"]["true_coverage"]["value"] == 30


def test_multipass_r2_pass_accounting(capsys):
    payload = run_json(capsys, "setcover-multipass", "--gen",
                       "random:n=10,m=60,p=0.25", "--r", "2", "--seed", "3")
    assert payload["params"]["algorithm_passes"] == 3
    assert payload["params"]["pass_budget"] == 3
    assert payload["passes"] == 4
    assert payload["true_values"]["true_coverage"]["value"] == 60


def test_multipass_rejects_stdin(capsys, monkeypatch):
    import sys
    monkeypatch.setattr(sys, "stdin", io.StringIO("0 0\n"))
    code, _, err = run(capsys, "setcover-multipass", "--input", "-", "--n", "1",
                       "--m", "1", "--r", "1")
    assert code == 2


def test_multipass_needs_shape(tmp_path, capsys):
    edges = tmp_path / "bare.txt"
    edges.write_text("0 0\n1 1\n")
    code, _, err = run(capsys, "setcover-multipass", "--input", str(edges),
                       "--r", "1")
    assert code == 2
    assert "--n/--m" in err


# ---------------------------------------------------------------------------
# eval


def _eval_rows(out_text):
    rows = list(csv.reader(io.StringIO(out_text)))
    assert rows[0] == EVAL_CSV_HEADER.split(",")
    return rows[1:]


def test_eval_csv_contract_and_ratios(capsys):
    code, out, err = run(capsys, "eval", "--gen", "random:n=8,m=30,p=0.3",
                         "--k", "2", "--eps", "0.5", "--seed", "1",
                         "--repeat", "2")
    assert code == 0, err
    rows = _eval_rows(out)
    assert len(rows) == 8
    algos = [r[2] for r in rows]
    assert algos == ["sketch_greedy", "l0_enum", "exact_greedy",
                     "brute_force"] * 2
    by_algo = {}
    for r in rows:
        by_algo.setdefault(r[2], []).append(r)
    for r in by_algo["brute_force"]:
        assert float(r[6]) == 1.0
    for r in by_algo["exact_greedy"]:
        assert float(r[6]) >= 1.0 - 1.0 / math.e - 1e-9
    for r in rows:
        assert r[3] == "2"


def test_eval_deterministic_apart_from_timing(capsys):
    argv = ["eval", "--gen", "random:n=8,m=30,p=0.3", "--k", "2",
            "--eps", "0.5", "--seed", "9", "--repeat", "2"]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    strip = lambda text: [r[:-1] for r in csv.reader(io.StringIO(text))]
    assert strip(first) == strip(second)


def test_eval_sketch_space_beats_l0_at_k4(capsys):
    code, out, err = run(capsys, "eval", "--gen", "random:n=30,m=400,p=0.35",
                         "--k", "4", "--eps", "0.5", "--seed", "9")
    assert code == 0, err
    rows = _eval_rows(out)
    space = {r[2]: int(r[7]) for r in rows if r[7]}
    assert space["sketch_greedy"] <= space["l0_enum"]
    assert space["sketch_greedy"] > 0


def test_eval_guard_skips_rows(capsys):
    # comb(40, 8) trips both the brute-force and the enumeration guards
    code, out, err = run(capsys, "eval", "--gen", "random:n=40,m=10,p=0.3",
                         "--k", "8", "--eps", "0.5", "--seed", "0")
    assert code == 0, err
    rows = {r[2]: r for r in _eval_rows(out)}
    assert rows["brute_force"][6] == "skipped"
    assert rows["l0_enum"][6] == "skipped"
    assert rows["sketch_greedy"][5] == ""     # no optimum column
    assert rows["sketch_greedy"][6] == ""
    assert rows["exact_greedy"][4] != ""


def test_eval_out_file_and_stdin_rejection(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code, _, _ = run(capsys, "eval", "--gen", "random:n=6,m=20,p=0.4",
                     "--k", "2", "--eps", "0.5", "--out", str(out))
    assert code == 0
    assert out.read_text().startswith(EVAL_CSV_HEADER)
    code, _, err = run(capsys, "eval", "--input", "-", "--k", "2")
    assert code == 2


# ---------------------------------------------------------------------------
# hardness-demo


def test_hardness_demo_json(capsys):
    payload = run_json(capsys, "hardness-demo", "--n-items", "60", "--k-gold",
                       "6", "--eps", "0.2", "--trials", "200", "--budget",
                       "300", "--seed", "8")
    params = payload["params"]
    assert params["validity_ok"] is True
    assert params["validity_violations"] == 0
    assert params["validity_trials"] == 200
    assert payload["true_values"]["opt_value"]["value"] == 66
    for strategy in ("random_subsets", "greedy_via_noisy"):
        assert params[f"{strategy}.queries_used"] <= 300
        assert 0.0 <= float(params[f"{strategy}.best_ratio"]) <= 1.0
    assert payload["notes"] == []


def test_hardness_demo_single_strategy_and_audit(capsys):
    payload = run_json(capsys, "hardness-demo", "--n-items", "40", "--k-gold",
                       "4", "--trials", "50", "--budget", "100",
                       "--strategy", "random_subsets", "--unsafe-audit")
    assert "greedy_via_noisy.queries_used" not in payload["params"]
    assert any("gold" in note for note in payload["notes"])


def test_hardness_demo_domain_error(capsys):
    code, _, err = run(capsys, "hardness-demo", "--n-items", "4", "--k-gold",
                       "5")
    assert code == 2


# ---------------------------------------------------------------------------
# Exit codes


def test_exit_code_bad_usage(capsys):
    assert run(capsys, "kcover", "--k", "1")[0] == 2                 # no source
    assert run(capsys, "kcover", "--gen", "random:n=2,m=2,p=1",
               "--input", "x", "--k", "1")[0] == 2                   # both
    assert run(capsys, "nonsense")[0] == 2                           # argparse
    assert run(capsys, "kcover", "--gen", "random:n=2,m=2,p=1",
               "--k", "0")[0] == 2                                   # domain


def test_exit_code_io_and_parse(tmp_path, capsys):
    code, _, err = run(capsys, "kcover", "--input", str(tmp_path / "missing.txt"),
                       "--n", "3", "--k", "1")
    assert code == 3
    bad = tmp_path / "bad.txt"
    bad.write_text("0 zero\n")
    code, _, err = run(capsys, "kcover", "--input", str(bad), "--n", "3",
                       "--k", "1")
    assert code == 3
    assert "input error" in err


@pytest.mark.parametrize("field", ["\u00b2".encode(), b"\xff"],
                         ids=["superscript-two", "byte-ff"])
def test_exit_code_non_ascii_text_field(tmp_path, capsys, monkeypatch, field):
    # '²' passes str.isdigit and 0xff is no UTF-8; both are parse errors
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"0 0\n1 " + field + b"\n")
    code, _, err = run(capsys, "kcover", "--input", str(bad), "--k", "1")
    assert code == 3
    assert "input error" in err and "(line 2, offset 2)" in err
    import sys
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(bad.read_bytes())))
    code, _, err = run(capsys, "kcover", "--input", "-", "--n", "2", "--k", "1")
    assert code == 3
    assert "input error" in err and "(line 2, offset 2)" in err


def test_exit_code_element_id_beyond_32_bits(tmp_path, capsys, monkeypatch):
    from covsketch import cli
    from covsketch.harness import OnceEdgeSource
    monkeypatch.setattr(cli, "_open_source", lambda args, seed: OnceEdgeSource(
        [(0, 1), (1, 2 ** 32 + 5)], "stdin"))
    code, _, err = run(capsys, "build-sketch", "--input", "-", "--n", "2",
                       "--k", "1", "--out", str(tmp_path / "sk.bin"))
    assert code == 3
    assert "input error" in err and "32-bit" in err


def test_exit_code_eval_set_id_beyond_n(tmp_path, capsys):
    path = tmp_path / "edges.txt"
    path.write_text("0 0\n5 1\n")
    code, _, err = run(capsys, "eval", "--input", str(path), "--n", "2",
                       "--k", "1")
    assert code == 3
    assert "input error" in err and "set id 5" in err


def test_exit_code_guard(capsys):
    code, _, err = run(capsys, "kcover", "--gen", "random:n=40,m=10,p=0.3",
                       "--k", "8", "--with-opt")
    assert code == 4
    assert "guard" in err
