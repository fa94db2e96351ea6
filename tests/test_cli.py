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
