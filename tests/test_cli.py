import json
from pathlib import Path

import pytest

from djets.cli import main
from djets.series import MAX_PRECISION

PARABOLA = """
dvariety parabola {
  vars: x, y;
  ideal: [y - x^2];
  section: [1, 2*x];
}
point p on parabola { coords: [1, 1]; }
"""

BAD_SECTION = """
dvariety broken {
  vars: x, y;
  ideal: [y - x^2];
  section: [1, 1];
}
"""

LINES = """
dvariety L1 { vars: x; ideal: []; section: [x]; }
dvariety L2 { vars: x; ideal: []; section: [2*x]; }
point a on L1 { coords: [1]; }
point b on L2 { coords: [1]; }
"""


@pytest.fixture
def parabola_file(tmp_path):
    path = tmp_path / "parabola.djv"
    path.write_text(PARABOLA, encoding="utf-8")
    return str(path)


def test_check_valid_section(parabola_file, capsys):
    assert main(["check", parabola_file]) == 0
    out = capsys.readouterr().out
    assert "valid [exact]" in out


def test_check_reports_residual_and_exit_one(tmp_path, capsys):
    path = tmp_path / "broken.djv"
    path.write_text(BAD_SECTION, encoding="utf-8")
    assert main(["check", str(path)]) == 1
    out = capsys.readouterr().out
    assert "INVALID" in out and "residual" in out


def test_jet_command_prints_basis(parabola_file, capsys):
    assert main(["jet", "--at", "p", parabola_file]) == 0
    out = capsys.readouterr().out
    assert "dim 1" in out and "['1', '2']" in out


def test_jet_json_schema(parabola_file, capsys):
    assert main(["--format", "json", "jet", "--at", "p", parabola_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["basis"] == [["1", "2"]]
    assert payload["equations"] == [["-2", "1"]]
    assert payload["lambda"] == [[1, 0], [0, 1]]
    assert payload["dim"] == 1


def test_parse_error_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.djv"
    path.write_text("dvariety ", encoding="utf-8")
    assert main(["check", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_unknown_point_exits_two(parabola_file, capsys):
    assert main(["jet", "--at", "nowhere", parabola_file]) == 2


def test_off_variety_point_exits_two(tmp_path, capsys):
    path = tmp_path / "off.djv"
    path.write_text(PARABOLA.replace("[1, 1]", "[1, 3]"), encoding="utf-8")
    assert main(["jet", "--at", "p", str(path)]) == 2


def test_integrate_and_horizontal(parabola_file, capsys):
    assert main(["integrate", "--from", "p", "-N", "6", parabola_file]) == 0
    out = capsys.readouterr().out
    assert "x = 1 + t" in out
    assert main(["horizontal", "--from", "p", "-N", "8", parabola_file]) == 0
    out = capsys.readouterr().out
    assert "dim over series field: 1" in out
    assert "dim over constants:    1" in out


def test_counterexample_command(capsys):
    assert main(["counterexample", "-N", "8"]) == 0
    out = capsys.readouterr().out
    assert "delta u = 2*x*u - 2*x*v" in out
    assert "kernel identity: True" in out
    assert "all checks passed" in out


def test_counterexample_json_deterministic(capsys):
    assert main(["--format", "json", "counterexample", "-N", "8"]) == 0
    first = capsys.readouterr().out
    assert main(["--format", "json", "counterexample", "-N", "8"]) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["ok"] is True


def test_verify_product_command(tmp_path, capsys):
    path = tmp_path / "lines.djv"
    path.write_text(LINES, encoding="utf-8")
    assert main(["verify-product", "L1", "L2", "--from", "a", "b",
                 "-m", "2", str(path)]) == 0
    out = capsys.readouterr().out
    assert "5 horizontal jets decompose" in out


def test_tangent_command_with_restriction(tmp_path, capsys):
    path = tmp_path / "plane.djv"
    path.write_text(
        """
        dvariety X { vars: x, y; ideal: []; section: [x^2 - y^2, x^2 - x*y]; }
        restrict toZ { x = y; delta x = 0; }
        """,
        encoding="utf-8",
    )
    assert main(["tangent", "--restrict", "toZ", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "x = y"
    assert out[1] == "delta x = 0"


def test_precision_env_override(parabola_file, capsys, monkeypatch):
    monkeypatch.setenv("DJETS_PRECISION", "5")
    assert main(["integrate", "--from", "p", parabola_file]) == 0
    out = capsys.readouterr().out
    assert "O(t^6)" in out


def test_precision_floor_enforced(parabola_file):
    with pytest.raises(SystemExit) as info:
        main(["integrate", "--from", "p", "-N", "2", parabola_file])
    assert info.value.code == 2


def test_order_bounds_enforced(parabola_file):
    with pytest.raises(SystemExit) as info:
        main(["jet", "--at", "p", "-m", "7", parabola_file])
    assert info.value.code == 2


def test_precision_env_must_be_an_integer(parabola_file, monkeypatch):
    monkeypatch.setenv("DJETS_PRECISION", "1.5")
    with pytest.raises(SystemExit) as info:
        main(["integrate", "--from", "p", parabola_file])
    assert info.value.code == 2


def test_precision_ceiling_enforced(parabola_file, monkeypatch):
    assert MAX_PRECISION >= 192
    with pytest.raises(SystemExit) as info:
        main(["integrate", "--from", "p", "-N", str(MAX_PRECISION + 1), parabola_file])
    assert info.value.code == 2
    monkeypatch.setenv("DJETS_PRECISION", str(MAX_PRECISION + 1))
    with pytest.raises(SystemExit) as info:
        main(["integrate", "--from", "p", parabola_file])
    assert info.value.code == 2


CUSP = """
dvariety cusp {
  vars: x, y;
  ideal: [y^2 - x^3];
  section: [2*x, 3*y];
}
point o on cusp { coords: [0, 0]; }
"""


def test_horizontal_at_singular_equilibrium(tmp_path, capsys):
    path = tmp_path / "cusp.djv"
    path.write_text(CUSP, encoding="utf-8")
    argv = ["horizontal", "--from", "o", "-m", "2", "-N", "12", "--format", "json"]
    assert main(argv + [str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dim_K"] == payload["dim_C"] == 4


def test_unreadable_file_exits_two(tmp_path, capsys):
    missing = tmp_path / "missing.djv"
    assert main(["integrate", "--from", "a", "-N", "8", str(missing)]) == 2
    assert f"error: cannot read {missing}" in capsys.readouterr().err
    binary = tmp_path / "binary.djv"
    binary.write_bytes(b"\xff\xfe\x00dvariety")
    assert main(["check", str(binary)]) == 2
    assert f"error: cannot read {binary}" in capsys.readouterr().err
    assert main(["check", str(tmp_path)]) == 2
    assert f"error: cannot read {tmp_path}" in capsys.readouterr().err
