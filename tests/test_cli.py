import json

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
