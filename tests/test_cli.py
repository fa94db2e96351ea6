import json
import os
import subprocess
import sys

import mahlerlift
from mahlerlift import cli


def _run(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().out


def test_lift_escalates_from_degree_zero(capsys):
    code, out = _run(capsys, ["lift", "--system", "cantor3.json", "--alpha", "1/2",
                              "--tau", "1,-1,1/2", "--deg", "0", "--json"])
    doc = json.loads(out)
    assert code == 0 and doc["status"] == "lifted"
    assert doc["degrees_tried"][0] == 0 and doc["degrees_tried"][1:] == [1]


def test_regular_accepts_negative_alpha_argument(capsys):
    sep = _run(capsys, ["regular", "--system", "cantor2.json", "--alpha", "-5/11", "--json"])
    joined = _run(capsys, ["regular", "--system", "cantor2.json", "--alpha=-5/11", "--json"])
    assert sep == joined and sep[0] == 0
    assert json.loads(sep[1])["certificate"]["alpha"] == "-5/11"


def test_lift_accepts_negative_alpha_and_tau_arguments(capsys):
    sep = _run(capsys, ["lift", "--system", "cantor3.json", "--alpha", "-1/2",
                        "--tau", "-1,1,1/2", "--json"])
    joined = _run(capsys, ["lift", "--system", "cantor3.json", "--alpha=-1/2",
                           "--tau=-1,1,1/2", "--json"])
    assert sep == joined and sep[0] == 0
    assert json.loads(sep[1])["status"] == "lifted"


def test_missing_option_value_is_a_usage_error(capsys):
    code, out = _run(capsys, ["regular", "--system", "cantor2.json", "--alpha"])
    assert code == 2 and out == ""


def test_solve_order_zero_and_pole_are_input_errors(capsys, tmp_path):
    code, out = _run(capsys, ["solve", "--system", "cantor2.json", "--order", "0", "--json"])
    assert code == 2 and out == ""
    pole = tmp_path / "pole.json"
    pole.write_text(json.dumps({"name": "pole", "q": 2, "m": 1,
                                "A": [[{"num": ["1"], "den": ["0", "1"]}]], "f0": ["1"]}))
    code, out = _run(capsys, ["solve", "--system", str(pole), "--order", "8", "--json"])
    assert code == 2 and out == ""


def test_hilbert_profile_is_computed_serially(capsys):
    code, out = _run(capsys, ["hilbert", "--system", "cantor2.json", "--dmax", "3", "--json"])
    doc = json.loads(out)
    assert code == 0 and doc["profile"]["phi"] == [1, 2, 3, 4]
    assert doc["trdeg"]["t_hat"] == 1
    code, out = _run(capsys, ["hilbert", "--system", "cantor2.json", "--jobs", "2"])
    assert code == 2 and out == ""


_BUDGET_CHILD = """
import json, os, resource
from mahlerlift import cli
before = resource.getrlimit(resource.RLIMIT_AS)
os.environ["MAHLER_BUDGET_MB"] = "4096"
ok = cli.main(["regular", "--system", "cantor2.json", "--alpha", "1/2"])
after_ok = resource.getrlimit(resource.RLIMIT_AS)
os.environ["MAHLER_BUDGET_MB"] = "lots"
bad = cli.main(["regular", "--system", "cantor2.json", "--alpha", "1/2"])
after_bad = resource.getrlimit(resource.RLIMIT_AS)
print(json.dumps([before, ok, after_ok, bad, after_bad]))
"""


def test_memory_budget_is_scoped_to_main():
    src = os.path.dirname(os.path.dirname(os.path.abspath(mahlerlift.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("MAHLER_BUDGET_MB", None)
    proc = subprocess.run([sys.executable, "-c", _BUDGET_CHILD], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    before, ok, after_ok, bad, after_bad = json.loads(proc.stdout.splitlines()[-1])
    assert (ok, bad) == (0, 2)
    assert after_ok == before and after_bad == before


_SEQUENCE_CHILD = """
import contextlib, io, json, sys
from mahlerlift import cli
out = []
for argv in json.loads(sys.argv[1]):
    so, se = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
        code = cli.main(argv)
    out.append([code, so.getvalue(), se.getvalue()])
print(json.dumps([out, cli._build_parser.cache_info().misses]))
"""


def _child_runs(argvs):
    src = os.path.dirname(os.path.dirname(os.path.abspath(mahlerlift.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("MAHLER_BUDGET_MB", None)
    proc = subprocess.run([sys.executable, "-c", _SEQUENCE_CHILD, json.dumps(argvs)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_parser_built_once_per_process_keeps_outputs():
    """A usage error, a valid request and another subcommand in one process
    print and exit as they do in separate processes."""
    argvs = [["regular", "--system", "cantor2.json", "--alpha"],
             ["regular", "--system", "cantor2.json", "--alpha", "1/2", "--json"],
             ["solve", "--system", "cantor2.json", "--order", "8", "--json"],
             ["regular", "--system", "cantor2.json", "--alpha", "-5/11"]]
    together, builds = _child_runs(argvs)
    assert builds == 1
    alone = [_child_runs([argv])[0][0] for argv in argvs]
    assert together == alone
    assert [code for code, _, _ in together] == [2, 0, 0, 0]
    assert "usage:" in together[0][2] and together[1][1] and together[2][1]
