"""Command-line surface: exact printed tables, verifier dispatch, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qvertex import cli
from qvertex.cli import BY_COST, CHEAP, main
from qvertex.symfunc import partitions_up_to
from qvertex.verifier import CHECK_IDS


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def payloads(out):
    return [json.loads(line) for line in out.splitlines()]


def test_hl_p_basis_golden(capsys):
    code, out, err = run(capsys, "hl", "1")
    assert code == 0
    assert payloads(out) == [{"lambda": [1], "basis": "p", "t_order": 24,
                              "terms": [{"mu": [1], "coeff": ["1", "-1"]}]}]
    assert "raising t-order" in err


def test_hl_two_row_golden(capsys):
    code, out, _ = run(capsys, "hl", "2,1")
    (p,) = payloads(out)
    assert [t["mu"] for t in p["terms"]] == [[1, 1, 1], [2, 1], [3]]
    assert p["terms"][0]["coeff"] == ["1/3", "-5/6", "1/2", "1/6", "-1/6"]


def test_hl_monomial_basis(capsys):
    code, out, _ = run(capsys, "hl", "1,1", "--basis", "m", "--nvars", "2")
    assert code == 0
    assert payloads(out) == [
        {"lambda": [1, 1], "basis": "m", "nvars": 2, "t_order": 24,
         "terms": [{"mu": [1, 1], "coeff": ["1", "-1", "-1", "1"]}]}]


def test_hl_keeps_higher_t_order(capsys):
    code, out, err = run(capsys, "hl", "2", "--t-order", "26")
    assert code == 0
    assert payloads(out)[0]["t_order"] == 26
    assert err == ""


def test_hl_text_format(capsys):
    code, out, _ = run(capsys, "hl", "2", "--format", "text")
    assert code == 0
    assert out == ("Q_[2] = (1/2 - t + 1/2*t^2)*p[1,1]"
                   " + (1/2 - 1/2*t^2)*p[2]\n")


WEIGHT6 = [",".join(map(str, lam)) for lam in partitions_up_to(6) if lam]
DATA = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize("golden, flags", [
    ("hl_weight6_p.jsonl", ()),
    ("hl_weight6_m.jsonl", ("--basis", "m")),
    ("hl_weight6_m_nvars7.txt", ("--basis", "m", "--nvars", "7",
                                 "--format", "text")),
])
def test_hl_weight6_golden(capsys, golden, flags):
    code, out, _ = run(capsys, "hl", *WEIGHT6, *flags)
    assert code == 0
    assert out == (DATA / golden).read_text()


def test_hl_monomial_nvars_beyond_weight(capsys):
    # a monomial of Q_lambda has at most |lambda| parts, so more variables
    # than that change only the reported nvars
    lams = ("1,1,1,1,1,1,1,1", "3,2,1")
    _, wide, _ = run(capsys, "hl", *lams, "--basis", "m", "--nvars", "20")
    _, narrow, _ = run(capsys, "hl", *lams, "--basis", "m", "--nvars", "8")
    wide, narrow = payloads(wide), payloads(narrow)
    assert len(wide) == len(narrow) == 2
    for w, n in zip(wide, narrow):
        assert (w.pop("nvars"), n.pop("nvars")) == (20, 8)
        assert w == n


def test_hl_rejects_malformed_partition(capsys):
    for bad in ("2,x", "0", "1,,2"):
        code, _, err = run(capsys, "hl", bad)
        assert code == 2
        assert err != ""


def test_hl_rejects_nonpositive_nvars(capsys):
    for n in ("0", "-1"):
        code, out, err = run(capsys, "hl", "1,1", "--basis", "m",
                             "--nvars", n)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "Traceback" not in err


def test_hl_rejects_large_weight(capsys):
    code, _, err = run(capsys, "hl", "5,5")
    assert code == 2
    assert "size limit" in err


def test_verify_json_schema(capsys):
    code, out, _ = run(capsys, "verify", "vacuum", "classical",
                       "--t-order", "3")
    assert code == 0
    rows = payloads(out)
    assert [r["check_id"] for r in rows] == ["classical", "vacuum"]
    for r in rows:
        assert set(r) == {"check_id", "params", "compared", "passed",
                          "first_mismatch", "elapsed"}
        assert r["passed"] is True
        assert r["first_mismatch"] is None
        assert r["compared"] > 0


def test_verify_all_dispatch(capsys):
    code, out, _ = run(capsys, "verify", "all", "--t-order", "2")
    assert code == 0
    assert [r["check_id"] for r in payloads(out)] == sorted(CHECK_IDS)


def test_verify_unknown_check(capsys):
    code, _, err = run(capsys, "verify", "bogus")
    assert code == 2
    assert "bogus" in err


def test_verify_text_table(capsys):
    code, out, _ = run(capsys, "verify", "vacuum", "--t-order", "3",
                       "--format", "text")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("check")
    assert lines[1].split()[:2] == ["vacuum", "pass"]
    assert lines[-1] == "all checks passed"


def test_verify_deterministic_apart_from_elapsed(capsys):
    def snap():
        _, out, _ = run(capsys, "verify", "classical")
        rows = payloads(out)
        for r in rows:
            del r["elapsed"]
        return rows

    assert snap() == snap()


def test_rejects_negative_orders(capsys):
    for argv in (("verify", "vacuum", "--t-order", "-1"),
                 ("verify", "vacuum", "--gamma-order", "-2"),
                 ("verify", "vacuum", "--window", "0"),
                 ("verify", "classical", "--max-degree", "-1"),
                 ("hl", "1", "--t-order", "-1")):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: need t-order >= 0")


def test_verify_classical_passes_at_cap_zero(capsys):
    code, out, err = run(capsys, "verify", "classical", "--max-degree", "0")
    assert code == 0
    assert err == ""
    [row] = payloads(out)
    assert row["check_id"] == "classical" and row["passed"]
    assert row["params"]["degree_cap"] == 0


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["verify", "vacuum", "--charges", "x"])
    assert e.value.code == 2
    # hl takes no verify-only flags
    with pytest.raises(SystemExit) as e:
        main(["hl", "1", "--max-degree", "3"])
    assert e.value.code == 2
    capsys.readouterr()


def test_verify_notices_ignored_charges(capsys):
    def verify(*argv):
        code, out, err = run(capsys, "verify", *argv, "--t-order", "1",
                             "--max-degree", "6", "--window", "2")
        rows = payloads(out)
        for r in rows:
            del r["elapsed"]
        return code, rows, err

    code, plain, err = verify("vacuum", "braided-commutativity")
    assert code == 0 and "notice" not in err
    code, rows, err = verify("vacuum", "braided-commutativity",
                             "--charges", "1,2")
    assert code == 0
    assert err == "notice: --charges does not apply to vacuum\n"
    # the charge-free check is unchanged; the other one took the charges
    assert rows[1] == plain[1]
    assert rows[0]["params"]["charges"] == [1, 2]
    _, _, err = verify("braided-commutativity", "--charges", "1,2")
    assert "notice" not in err
    _, _, err = verify("classical", "expansion", "jacobi", "vacuum",
                       "--charges", "2,1")
    assert err == ("notice: --charges does not apply to classical, "
                   "expansion, jacobi, vacuum\n")
    _, _, err = verify("hl-oracle", "--charges", "2,1")
    assert err.splitlines()[-1] == ("notice: --charges does not apply to "
                                    "hl-oracle")


def without_elapsed(out):
    rows = payloads(out)
    for r in rows:
        del r["elapsed"]
    return [json.dumps(r) for r in rows]


# the CLI defaults, and the low caps where the working caps and the
# projections differ from the CLI cap
VERIFY_ALL_GOLDENS = (
    ("verify_all_default.jsonl", ()),
    ("verify_all_max_degree_0.jsonl", ("--max-degree", "0")),
    ("verify_all_max_degree_1_window_1.jsonl",
     ("--max-degree", "1", "--window", "1")),
)


@pytest.mark.parametrize("cpus", [1, 2])
def test_verify_all_matches_golden_pooled_or_not(capsys, monkeypatch, cpus):
    # one CPU runs the checks in this process, two in a pool of forked
    # workers; the reports come back in the same order either way
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cpus)), raising=False)
    for name, flags in VERIFY_ALL_GOLDENS:
        code, out, err = run(capsys, "verify", "all", *flags)
        assert code == 0
        assert err == "notice: hl-oracle runs at t-order 24\n"
        golden = (DATA / name).read_text().splitlines()
        assert without_elapsed(out) == golden, name
    code, out, _ = run(capsys, "verify", "all", "--t-order", "1",
                       "--window", "1", "--max-degree", "2",
                       "--format", "text")
    assert code == 0
    assert [line.split()[0] for line in out.splitlines()[1:-1]] \
        == sorted(CHECK_IDS)


@pytest.mark.parametrize("pair", ["1,2", "2,1"])
def test_verify_charged_checks_match_the_charged_goldens(capsys, pair):
    # the two checks that read --charges, against their lines of the
    # verify-all golden at that pair
    code, out, err = run(capsys, "verify", "braided-commutativity",
                         "translation", "--charges", pair)
    assert code == 0 and err == ""
    golden = (DATA / f"verify_all_charges_{pair.replace(',', '_')}.jsonl")
    assert without_elapsed(out) == [
        line for line in golden.read_text().splitlines()
        if json.loads(line)["check_id"] in ("braided-commutativity",
                                            "translation")]


def test_verify_expansion_below_the_window_matches_golden(capsys):
    # the degree cap below the window, at a t-order of its own
    code, out, _ = run(capsys, "verify", "expansion", "--window", "6",
                       "--max-degree", "4", "--t-order", "2")
    assert code == 0
    golden = (DATA / "verify_expansion_window_6_max_degree_4_t_order_2.jsonl")
    assert without_elapsed(out) == golden.read_text().splitlines()


def test_verify_expansion_at_t_order_24_matches_golden(capsys):
    # deep in t, where the braiding scalar's support is widest
    code, out, _ = run(capsys, "verify", "expansion", "--t-order", "24",
                       "--window", "4", "--max-degree", "8")
    assert code == 0
    golden = (DATA / "verify_expansion_t_order_24_window_4_max_degree_8.jsonl")
    assert without_elapsed(out) == golden.read_text().splitlines()


def test_verify_expansion_at_the_wide_window_matches_golden(capsys):
    # t-order 1 on the widest window, where line 3's translation scalar
    # reaches furthest into the series it multiplies
    code, out, _ = run(capsys, "verify", "expansion", "--t-order", "1",
                       "--window", "7", "--max-degree", "10")
    assert code == 0
    golden = (DATA / "verify_expansion_t_order_1_window_7_max_degree_10.jsonl")
    assert without_elapsed(out) == golden.read_text().splitlines()


def test_verify_braided_at_t_order_24_matches_golden(capsys):
    # deep in t, where the series under the braiding scalar is longest
    code, out, _ = run(capsys, "verify", "braided-commutativity",
                       "--t-order", "24", "--window", "4", "--max-degree", "8",
                       "--charges", "1,2")
    assert code == 0
    golden = (DATA / "verify_braided_t_order_24_window_4_max_degree_8"
              "_charges_1_2.jsonl")
    assert without_elapsed(out) == golden.read_text().splitlines()


@pytest.mark.parametrize("check, t_order, window, cap, pair", [
    ("braided-commutativity", 24, 4, 8, "1,1"),
    ("braided-commutativity", 24, 4, 6, "2,1"),
    ("translation", 16, 3, 7, "1,1"),
    ("translation", 16, 3, 7, "2,1")])
def test_verify_deep_t_calls_match_their_goldens(capsys, check, t_order,
                                                 window, cap, pair):
    # the deep-t benchmark calls that no other golden pins, each a chain
    # of the prefactor, E+ and the braiding or translation scalar
    code, out, _ = run(capsys, "verify", check, "--t-order", str(t_order),
                       "--window", str(window), "--max-degree", str(cap),
                       "--charges", pair)
    assert code == 0
    golden = (DATA / f"verify_{check.split('-')[0]}_t_order_{t_order}"
              f"_window_{window}_max_degree_{cap}"
              f"_charges_{pair.replace(',', '_')}.jsonl")
    assert without_elapsed(out) == golden.read_text().splitlines()


@pytest.mark.parametrize("golden, argv", [
    # the classical check's coefficient comparisons and the D its
    # translation lines iterate, at a window and cap no verify-all pins
    ("verify_classical_vacuum_window_7_max_degree_12.jsonl",
     ("classical", "vacuum", "--window", "7", "--max-degree", "12")),
])
def test_verify_matches_its_golden(capsys, golden, argv):
    code, out, _ = run(capsys, "verify", *argv)
    assert code == 0
    assert without_elapsed(out) == (DATA / golden).read_text().splitlines()


def test_verify_all_reports_the_first_error_in_order(capsys):
    code, out, err = run(capsys, "verify", "all", "--charges", "3,3")
    assert code == 2
    assert out == ""
    assert err == ("notice: hl-oracle runs at t-order 24\n"
                   "notice: --charges does not apply to classical, "
                   "expansion, hl-oracle, jacobi, vacuum\n"
                   "error: braided-commutativity: charge 6 outside 0..3\n")


def test_importing_the_cli_loads_no_process_pool():
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import qvertex.cli;"
            " print(sorted({'multiprocessing', 'concurrent.futures'}"
            " & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-I", "-c", code, src],
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    # in a fresh interpreter: this one has loaded them already; the script
    # also runs passing checks, which must load neither fractions nor
    # pickle, and names the module that imported each one it finds
    script = Path(__file__).resolve().parent / "import_graph.py"
    done = subprocess.run([sys.executable, "-I", str(script)],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr


def test_run_config_defaults_are_the_option_defaults():
    # the parser reads the defaults from an instance: on the class the
    # field names are descriptors
    args = cli._build_parser().parse_args(["verify", "all"])
    cfg = cli.RunConfig()
    assert (args.t_order, args.gamma_order, args.max_degree, args.window,
            args.charges, args.fmt) == cfg
    with pytest.raises(AttributeError):
        cfg.window = 2


def test_cost_order_covers_every_check():
    # the task pipe is written in BY_COST order, which must name every check
    assert sorted(BY_COST) == sorted(CHECK_IDS)
    assert len(BY_COST) == len(CHECK_IDS)
    assert CHEAP < set(BY_COST)


def two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


SMALL = ("--t-order", "1", "--window", "1", "--max-degree", "2")


def test_cheap_selection_starts_no_pool(capsys, monkeypatch):
    def no_fork():
        raise AssertionError("forked for cheap checks only")

    monkeypatch.setattr(os, "fork", no_fork)
    two_cpus(monkeypatch)
    code, out, _ = run(capsys, "verify", "vacuum", "classical")
    assert code == 0
    assert [p["check_id"] for p in payloads(out)] == ["classical", "vacuum"]


def test_pool_starts_the_heaviest_check_first(capsys, monkeypatch):
    # the workers take the checks from the task pipe in the order written
    pipes, writes = [], []
    real_pipe, real_write = os.pipe, os.write

    def pipe():
        fds = real_pipe()
        pipes.append(fds)
        return fds

    def write(fd, data):
        writes.append((fd, bytes(data)))
        return real_write(fd, data)

    monkeypatch.setattr(os, "pipe", pipe)
    monkeypatch.setattr(os, "write", write)
    two_cpus(monkeypatch)
    code, out, _ = run(capsys, "verify", "vacuum", "jacobi", "translation",
                       *SMALL)
    assert code == 0
    task_end = pipes[0][1]
    assert [data for fd, data in writes if fd == task_end] == [
        bytes(CHECK_IDS.index(c) for c in ("translation", "jacobi", "vacuum"))]
    assert [p["check_id"] for p in payloads(out)] \
        == ["jacobi", "translation", "vacuum"]
    assert_no_child_left()


FORKED_VERIFY_ALL = """\
import os, sys
sys.path.insert(0, sys.argv[1])
os.sched_getaffinity = lambda pid: {0, 1}
from qvertex.cli import main
code = main(["verify", "all"])
try:
    os.waitpid(-1, os.WNOHANG)
    left = True
except ChildProcessError:
    left = False
print(code, sorted({"multiprocessing", "concurrent.futures", "pickle",
                    "fractions"} & set(sys.modules)), left)
"""


def test_forked_verify_all_loads_no_process_pool_and_leaves_no_child():
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-I", "-c", FORKED_VERIFY_ALL, src],
                          capture_output=True, text=True, check=True)
    *reports, last = done.stdout.splitlines()
    assert last == "0 [] False"
    golden = (DATA / "verify_all_default.jsonl").read_text().splitlines()
    assert without_elapsed("\n".join(reports)) == golden


def test_a_worker_that_dies_names_its_check(capsys, monkeypatch):
    real = cli.run_check

    def dying(cid, **kwargs):
        if cid == "vacuum":
            os._exit(3)
        return real(cid, **kwargs)

    monkeypatch.setattr(cli, "run_check", dying)
    two_cpus(monkeypatch)
    with pytest.raises(RuntimeError,
                       match="no report for .*vacuum.* exit codes .*3"):
        main(["verify", "vacuum", "jacobi", "translation", *SMALL])
    assert capsys.readouterr().out == ""
    assert_no_child_left()


def test_a_worker_passes_on_other_exceptions_with_their_type(capsys,
                                                             monkeypatch):
    real = cli.run_check

    def failing(cid, **kwargs):
        if cid == "jacobi":
            raise ZeroDivisionError("in jacobi")
        return real(cid, **kwargs)

    monkeypatch.setattr(cli, "run_check", failing)
    two_cpus(monkeypatch)
    with pytest.raises(ZeroDivisionError, match="in jacobi"):
        main(["verify", "vacuum", "jacobi", "translation", *SMALL])
    assert capsys.readouterr().out == ""
    assert_no_child_left()
