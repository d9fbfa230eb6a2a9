import json

import pytest

from latred import cli, latfile
from latred.constructions import dual_root_d
from latred.rationals import Q


@pytest.fixture
def dnstar5(tmp_path):
    p = tmp_path / "dnstar5.lat"
    latfile.save(dual_root_d(5), str(p))
    return str(p)


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_main_builds_its_parser_once(capsys, monkeypatch):
    # main builds the parser on its first call and reuses it: one build
    # over three calls.  A call that argparse refuses exits 2 and leaves
    # the parser as it was, so verify gap 1 prints the same report after
    # it, apart from elapsed_seconds
    builds = []
    build = cli.build_parser

    def counted():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", counted)

    def gap1():
        code, out = run(capsys, ["verify", "gap", "1"])
        doc = json.loads(out)
        del doc["elapsed_seconds"]
        return code, doc

    # L_1 has no strict gap, so the report's verdict fails: exit 1
    before = gap1()
    assert before[0] == 1 and not before[1]["verdicts"]["strict_gap"]
    assert run(capsys, ["verify", "delta-table", "7"])[0] == 0
    assert gap1() == before
    assert len(builds) == 1
    for argv in (["verify", "nosuch"], ["verify", "gap", "1", "--parallel", "2"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2, argv
        assert capsys.readouterr().out == "", argv
    assert gap1() == before
    assert len(builds) == 1


def test_construct_writes_lattice_file(capsys, tmp_path):
    out = tmp_path / "g2.lat"
    code, _ = run(capsys, ["construct", "glued", "2", "--out", str(out)])
    assert code == 0
    L = latfile.load(str(out))
    assert L.rank == 14


def test_construct_stdout_and_examples(capsys):
    code, out = run(capsys, ["construct", "dnstar", "5"])
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "5 5"
    assert lines[-1] == "1/2 1/2 1/2 1/2 1/2"
    code, out = run(capsys, ["construct", "zn", "3"])
    assert code == 0
    assert out.splitlines()[2:] == ["1 0 0", "0 1 0", "0 0 1"]


def test_construct_bad_params(capsys):
    code, _ = run(capsys, ["construct", "glued"])
    assert code == 2
    assert cli.main(["construct", "zn", "0"]) == 2
    assert capsys.readouterr().err == "error: Z^n needs n >= 1\n"


def test_verify_checks_its_parameter_count(capsys, dnstar5):
    # gap, kz-structure, minkowski-bounds and delta-table take exactly one
    # parameter and appendix42 none; a missing or extra one is a usage
    # error that names the suite, and nothing runs
    for argv in (
        ["verify", "gap"],
        ["verify", "gap", "1", "99"],
        ["verify", "kz-structure"],
        ["verify", "kz-structure", "1", "2"],
        ["verify", "minkowski-bounds"],
        ["verify", "minkowski-bounds", dnstar5, dnstar5],
        ["verify", "delta-table"],
        ["verify", "delta-table", "7", "extra"],
        ["verify", "appendix42", "foo"],
        ["verify", "height-lift", "43"],
    ):
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert "verify suite %r takes" % argv[1] in captured.err, argv
    code, out = run(capsys, ["verify", "delta-table", "7"])
    assert code == 0 and json.loads(out)["suite"] == "delta-table"


def test_verify_delta_table_rejects_an_empty_table(capsys):
    # K < 1 leaves no entry to check, so it is a usage error like every
    # other suite's out-of-range parameter, not a pass
    for K in ("0", "-2"):
        assert cli.main(["verify", "delta-table", K]) == 2, K
        captured = capsys.readouterr()
        assert captured.out == "", K
        assert captured.err == "error: the Delta table needs K >= 1\n", K


def test_reduce_minkowski(capsys, dnstar5):
    code, out = run(capsys, ["reduce", "--alg", "minkowski", dnstar5])
    assert code == 0
    doc = json.loads(out)
    assert doc["max_norm_sq"] == "5/4"
    assert doc["algorithm"] == "minkowski"
    assert len(doc["basis"]) == 5
    assert all(t >= 1 for t in doc["tie_counts"])


def test_reduce_lll_identity(capsys, tmp_path):
    from latred.constructions import hypercubic

    p = tmp_path / "z3.lat"
    latfile.save(hypercubic(3), str(p))
    code, out = run(capsys, ["reduce", "--alg", "lll", str(p)])
    assert code == 0
    doc = json.loads(out)
    assert doc["basis"] == [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]


def test_minima_with_shortest_basis(capsys, dnstar5):
    code, out = run(capsys, ["minima", "--shortest-basis", dnstar5])
    assert code == 0
    doc = json.loads(out)
    assert doc["minima_sq"] == ["1"] * 5
    assert doc["shortest_basis"]["max_norm_sq"] == "5/4"
    assert doc["shortest_basis"]["certified"] is True


def test_verify_gap_and_delta(capsys):
    code, out = run(capsys, ["verify", "gap", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["quantities"]["v_last_sq"] == "73/36"
    assert doc["quantities"]["lambda_bar_sq"] == "5/4"
    code, out = run(capsys, ["verify", "delta-table", "10"])
    assert code == 0
    doc = json.loads(out)
    assert doc["delta_improved"][7] == "19/8"


def test_verify_delta_table_fails_on_a_wrong_table(capsys, monkeypatch):
    # the suite checks the closed forms and that no improved entry exceeds
    # the plain one; a wrong table exits 1 with the same JSON fields
    from latred.reduction import DeltaTable, vdw_delta_table

    def wrong(at, value, improved):
        def table(K, use_improvements):
            t = vdw_delta_table(K, use_improvements)
            if use_improvements != improved:
                return t
            values = list(t.values)
            values[at] = value
            return DeltaTable(tuple(values), t.improved)

        return table

    code, out = run(capsys, ["verify", "delta-table", "10"])
    keys = set(json.loads(out))
    for at, value, improved in (
        (4, Q(2), False),  # plain Delta_5 off its closed form 5/4
        (8, Q(3), True),  # improved Delta_9 off (608/625) (5/4)^5
        (5, Q(2), True),  # improved Delta_6 above the plain 25/16
    ):
        monkeypatch.setattr(cli, "vdw_delta_table", wrong(at, value, improved))
        code, out = run(capsys, ["verify", "delta-table", "10"])
        assert code == 1
        assert set(json.loads(out)) == keys


def test_verify_kz_structure(capsys):
    code, out = run(capsys, ["verify", "kz-structure", "1"])
    assert code == 0
    doc = json.loads(out)
    assert all(doc["verdicts"].values())


def test_verify_appendix42_reports_its_scan(capsys):
    code, out = run(capsys, ["verify", "appendix42"])
    assert code == 0
    doc = json.loads(out)
    assert doc["violations"] == []
    assert doc["families_checked"] == {
        "pairs": 861,
        "signed_quadruples": 335790,
        "quintuples": 850625,
    }
    assert doc["stats"]["probes"] == 10783
    assert doc["stats"]["supports_skipped"] == 43
    assert doc["stats"]["hits_confirmed"] == 0


def test_verify_height_lift(capsys, monkeypatch):
    import reference
    from latred import cli as cli_module
    from latred.constructions import default_heights, lattice42
    from latred.rationals import qstr

    code, out = run(capsys, ["verify", "height-lift"])
    assert code == 0
    doc = json.loads(out)
    assert doc["suite"] == "height-lift" and doc["lattice"] == "perturbed_43"
    assert doc["verdicts"]["base_scan_success"] is True
    assert all(doc["verdicts"].values())
    # s^2, s the heights' combination by the rational nullspace's relation
    rel = reference.linear_dependence(lattice42()[1])
    s = sum((a * h for a, h in zip(rel.coefficients, default_heights(43))), Q(0))
    assert doc["quantities"]["shortest_sq"] == qstr(s * s)
    # one failed verdict is exit 1
    real = cli_module.verify_height_lift

    def failing():
        rep = real()
        rep.verdicts["no_swap_gives_basis"] = False
        return rep

    monkeypatch.setattr(cli_module, "verify_height_lift", failing)
    code, out = run(capsys, ["verify", "height-lift"])
    assert code == 1 and json.loads(out)["verdicts"]["no_swap_gives_basis"] is False


def test_verify_minkowski_bounds_file(capsys, dnstar5):
    code, out = run(capsys, ["verify", "minkowski-bounds", dnstar5])
    assert code == 2  # rank 5 violates the rank >= 6 precondition
    p = dnstar5.replace("dnstar5", "dnstar6")
    latfile.save(dual_root_d(6), p)
    code, out = run(capsys, ["verify", "minkowski-bounds", p])
    assert code == 0
    doc = json.loads(out)
    assert doc["equalities"]["equality_at_6"] is True


def test_exit_code_failure_path(capsys, monkeypatch):
    from latred.verification import TheoremReport

    def fake(k):
        rep = TheoremReport("stub")
        rep.verdicts["always"] = False
        return rep

    monkeypatch.setattr(cli, "verify_theorem_gap", fake)
    code, out = run(capsys, ["verify", "gap", "2"])
    assert code == 1
    assert json.loads(out)["verdicts"] == {"always": False}


def test_exit_code_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.lat"
    bad.write_text("nonsense\n")
    code, _ = run(capsys, ["minima", str(bad)])
    assert code == 2


def test_exit_code_budget(capsys, tmp_path):
    import random

    from conftest import random_integer_lattice

    p = tmp_path / "hard.lat"
    latfile.save(random_integer_lattice(random.Random(1), 6, 4), str(p))
    code, _ = run(capsys, ["minima", str(p), "--node-budget", "5"])
    assert code == 2


def test_out_flag_writes_report(capsys, tmp_path, dnstar5):
    out = tmp_path / "report.json"
    code, printed = run(capsys, ["minima", dnstar5, "--out", str(out)])
    assert code == 0 and printed == ""
    doc = json.loads(out.read_text())
    assert doc["minima_sq"] == ["1"] * 5


def test_flags_a_command_would_ignore_are_rejected(capsys, dnstar5, monkeypatch):
    # construct takes no budget and no command takes --parallel; a
    # negative budget is a usage error, and no rejected command starts a
    # pool (the scan imports Pool when it runs)
    import multiprocessing

    def no_pool(*args, **kwargs):
        raise AssertionError("a rejected command started a pool")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    for argv in (
        ["construct", "zn", "3", "--node-budget", "5"],
        ["construct", "zn", "3", "--parallel", "2"],
        ["minima", dnstar5, "--parallel", "2"],
        ["verify", "appendix42", "--parallel", "2"],
        ["verify", "appendix42", "--parallel", "0"],
        ["verify", "appendix42", "--parallel", "-3"],
        ["verify", "gap", "1", "--parallel", "2"],
        ["verify", "minkowski-bounds", dnstar5, "--node-budget", "-1"],
        ["minima", dnstar5, "--node-budget", "-5"],
        ["reduce", "--alg", "kz", dnstar5, "--node-budget", "-1"],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2, argv
    for argv in (
        ["verify", "kz-structure", "1", "--node-budget", "5"],
        ["reduce", "--alg", "lll", dnstar5, "--node-budget", "5"],
    ):
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "applies only" in captured.err, argv
