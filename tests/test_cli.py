import json
from pathlib import Path

import pytest

from skeintor import cli, surface
from skeintor.cli import main
from skeintor.surface import standard_datum

GOLDEN = Path(__file__).parent / "golden"
SMALL_GRID = "rmax=1,nmax=4,pairs=60,leadbox=2,tracebox=2,monopairs=300"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestAnalyze:
    def test_sphere_four_order_five(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "--genus", "0", "--punctures", "4", "--xi-order", "5",
            "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["pi_degree"] == 5
        assert report["kernel_index"] == 25
        assert report["verdicts"]["kernel_equals_scaled_span"] == "PASS"
        assert report["verdicts"]["index_equals_pi_degree_squared"] == "PASS"

    def test_theta_order_four(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "--genus", "2", "--punctures", "0", "--xi-order", "4",
            "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["pi_degree"] == 4
        assert report["kernel_index"] == 16
        assert report["even_index"] == 16

    def test_excluded_surface(self, capsys):
        code, _, err = run(
            capsys, "analyze", "--genus", "1", "--punctures", "1", "--xi-order", "5"
        )
        assert code == 2
        assert "excluded" in err

    def test_deterministic(self, capsys):
        args = ("analyze", "--genus", "1", "--punctures", "2", "--xi-order", "6",
                "--format", "json")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2


class TestCoords:
    def test_member(self, capsys):
        code, out, _ = run(
            capsys, "coords", "--genus", "0", "--punctures", "4", "--coord", "2,2",
            "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["member"] is True
        assert report["degree_vector"] == [2, 2]
        assert [f["coord"] for f in report["faces"]] == [[2, 1], [2, 1]]

    def test_parity_witness(self, capsys):
        code, out, _ = run(
            capsys, "coords", "--genus", "0", "--punctures", "4", "--coord", "1,0",
            "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["member"] is False
        assert "odd" in report["witness"]

    def test_twist_witness(self, capsys):
        code, out, _ = run(
            capsys, "coords", "--genus", "0", "--punctures", "4", "--coord", "0,-1",
            "--format", "json",
        )
        report = json.loads(out)
        assert report["member"] is False
        assert "twist" in report["witness"]

    @pytest.mark.parametrize("coord", ["2,,2,0,0", "2,2,0,0,", ",2,2,0,0", "2 2,0,0"])
    def test_empty_or_joined_entry_is_an_error(self, capsys, coord):
        code, out, err = run(capsys, "coords", "--genus", "0", "--punctures", "5", "--coord", coord)
        assert code == 2 and out == ""
        assert err.startswith("error: cannot parse coordinate list")

    @pytest.mark.parametrize("coord", ["1_0,0", "\u0661,0", "2,\u0660"])
    def test_only_ascii_digits(self, capsys, coord):
        # int() reads "1_0" as 10 and accepts Arabic-Indic digits
        code, out, err = run(capsys, "coords", "--genus", "0", "--punctures", "4", "--coord", coord)
        assert code == 2 and out == ""
        assert err.startswith("error: cannot parse coordinate list")

    @pytest.mark.parametrize("coord", ["2,2,0", "2,2,0,0,0", "2"])
    def test_wrong_length_is_an_error(self, capsys, coord):
        # the length check is the one pants.split_nt makes
        code, out, err = run(capsys, "coords", "--genus", "0", "--punctures", "5", "--coord", coord)
        assert code == 2 and out == ""
        assert err == "error: coordinate must have length 4\n"

    def test_spaces_around_entries(self, capsys):
        code, out, _ = run(
            capsys, "coords", "--genus", "0", "--punctures", "5", "--coord", " 2, 2 ,0,0",
            "--format", "json",
        )
        assert code == 0 and json.loads(out)["coord"] == [2, 2, 0, 0]


class TestTrace:
    def test_pants_mode_return_arc(self, capsys):
        code, out, _ = run(
            capsys, "trace", "--pants", "3", "--coord", "2,0,0,0,1,0", "--format", "json"
        )
        assert code == 0
        report = json.loads(out)
        exps = [tuple(t["exponent"]) for t in report["value"]]
        assert set(exps) == {(2, 0, 0, 0, 1, 0), (2, 0, 0, 1, 0, -1)}
        assert all(v == "PASS" for v in report["checks"].values())

    def test_surface_mode(self, capsys):
        code, out, _ = run(
            capsys, "trace", "--genus", "0", "--punctures", "4", "--coord", "2,2",
            "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["lead_exponent"] == [2, 2]
        assert report["verdicts"]["lead_equals_coord"] == "PASS"

    def test_nonmember_errors(self, capsys):
        code, _, err = run(
            capsys, "trace", "--genus", "0", "--punctures", "4", "--coord", "1,0"
        )
        assert code == 2
        assert err == "error: coordinate not in the monoid: odd boundary sum (1,) at face 0\n"

    def test_glued_trace_tests_membership_twice(self, capsys, monkeypatch):
        # gluing the cold core tests the core in face_split, and face_split
        # tests the coordinate for the face reports; phi_value and the
        # command test nothing themselves
        calls = []
        real = surface.lambda_membership

        def counting(datum, coord):
            calls.append(tuple(coord))
            return real(datum, coord)

        monkeypatch.setattr(surface, "lambda_membership", counting)
        monkeypatch.setattr(cli, "lambda_membership", counting)
        code, _, _ = run(capsys, "trace", "--genus", "2", "--punctures", "0", "--coord", "2,2,2,1,-1,3")
        assert code == 0
        assert calls == [(2, 2, 2, 0, 0, 0), (2, 2, 2, 1, -1, 3)]

    def test_failed_lead_verdict_is_a_fail(self, capsys, monkeypatch):
        # a glued value with a rival term of other lengths and the same
        # twist, which ties with the coordinate under the twist order: a
        # failed verdict is FAIL with its reason and exit code 1, not an
        # error (exit code 2 is for bad input)
        glued = surface.phi_value

        def tied(datum, coord, *rest):
            return glued(datum, coord) + surface.surface_torus(datum).monomial((0, 1))

        # patched where it is defined and where the command may read it
        monkeypatch.setattr(surface, "phi_value", tied)
        monkeypatch.setattr(cli, "phi_value", tied, raising=False)
        code, out, err = run(
            capsys, "trace", "--genus", "0", "--punctures", "4", "--coord", "2,1",
            "--format", "json",
        )
        assert (code, err) == (1, "")
        report = json.loads(out)
        assert report["verdicts"]["lead_equals_coord"] == "FAIL"
        assert report["violations"][0].startswith("grading:")
        assert "lead_exponent" not in report


class TestDatumFile:
    def test_load_from_file(self, tmp_path, capsys):
        path = tmp_path / "datum.json"
        path.write_text(standard_datum(1, 2).to_json(), encoding="utf-8")
        code, out, _ = run(
            capsys, "analyze", "--datum", str(path), "--xi-order", "3", "--format", "json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["surface"] == {"genus": 1, "punctures": 2, "r": 2}
        assert report["pi_degree"] == 9

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "analyze", "--datum", "/nonexistent.json",
                           "--xi-order", "3")
        assert code == 2


class TestCheck:
    GRID = SMALL_GRID

    def test_small_grid_passes(self, capsys):
        code, out, _ = run(capsys, "check", "--grid", self.GRID, "--seed", "5",
                           "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert len(report) == 10
        assert all(r["verdict"] == "PASS" for r in report)

    def test_seeded_runs_reproducible(self, capsys):
        args = ("check", "--grid", self.GRID, "--seed", "9", "--format", "json")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_corrupted_form_fails_with_witness(self, capsys):
        code, out, _ = run(
            capsys, "check", "--grid", self.GRID, "--seed", "5", "--format", "json",
            "--corrupt-qtilde",
        )
        assert code == 1
        report = json.loads(out)
        bad = [r for r in report if r["verdict"] == "FAIL"]
        assert len(bad) == 1 and bad[0]["name"] == "top-term products"
        assert "pair" in bad[0]["detail"]

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "check", "--grid", self.GRID, "--seed", "5")
        assert code == 0
        lines = [l for l in out.splitlines() if l.strip()]
        assert len(lines) == 10
        assert all(l.startswith("[PASS]") for l in lines)

    @pytest.mark.parametrize("grid", ["rmaxx=1", "pairs=-5", "rmax=0", "pairs=x"])
    def test_bad_grid_is_an_error(self, capsys, grid):
        code, out, err = run(capsys, "check", "--grid", grid)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and grid.partition("=")[0] in err

    def test_repeated_grid_key_is_an_error(self, capsys):
        # a repeated key used to run silently with its last value
        grid = "rmax=1,rmax=2,nmax=2,pairs=5,leadbox=1,tracebox=1,monopairs=5"
        code, out, err = run(capsys, "check", "--grid", grid)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "'rmax' given more than once" in err


class TestIntegerOptions:
    """Every integer the command line takes is an optional sign and ASCII
    digits; int() alone reads "1_0" as 10 and accepts other scripts'
    digits, so "--grid pairs=1_0" used to run 10 pairs."""

    @pytest.mark.parametrize("grid", ["pairs=1_0", "rmax=\u0662"])
    def test_grid_value(self, capsys, grid):
        code, out, err = run(capsys, "check", "--grid", grid)
        assert code == 2 and out == ""
        assert err == f"error: cannot parse grid entry {grid!r}\n"

    @pytest.mark.parametrize("option, argv", [
        ("--genus", ("analyze", "--genus", "\u0660", "--punctures", "4", "--xi-order", "5")),
        ("--punctures", ("analyze", "--genus", "0", "--punctures", "\u0664", "--xi-order", "5")),
        ("--xi-order", ("analyze", "--genus", "0", "--punctures", "4", "--xi-order", "1_2")),
        ("--seed", ("check", "--seed", "1_0", "--grid", SMALL_GRID)),
        ("--pants", ("trace", "--pants", "\u0663", "--coord", "2,0,0,0,1,0")),
    ])
    def test_option_value(self, capsys, option, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        out = capsys.readouterr()
        assert exc.value.code == 2 and out.out == ""
        bad = argv[argv.index(option) + 1]
        assert f"error: argument {option}: cannot parse integer {bad!r}" in out.err
        assert "Traceback" not in out.err

    def test_signs_and_spaces_still_read(self, capsys):
        code, out, _ = run(capsys, "analyze", "--genus", " +0", "--punctures", "4 ",
                           "--xi-order", "5", "--format", "json")
        assert code == 0 and json.loads(out)["pi_degree"] == 5


class TestMalformedDatum:
    @pytest.mark.parametrize("text, named", [
        ("{}", "'vertices'"),
        ("[1, 2]", "list"),
        ("null", "NoneType"),
        ('{"vertices": 5, "edges": [], "legs": [], "slots": []}', "int"),
        ('{"vertices": [5], "edges": [], "legs": [], "slots": []}', "int"),
        ('{"vertices": [[0, 1, 2], [3, 4, 5]], "edges": [[0, 3, 9]], "legs": [1, 2, 4, 5],'
         ' "slots": [[0, 1, 2], [3, 4, 5]]}', "edges"),
    ])
    def test_error_not_traceback(self, tmp_path, capsys, text, named):
        path = tmp_path / "datum.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "analyze", "--datum", str(path), "--xi-order", "4")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and named in err

    @pytest.mark.parametrize("text", [
        "[" * 100000 + "]" * 100000,
        '{"vertices": ' + "[" * 100000 + "]" * 100000 + ', "edges": [], "legs": [], "slots": []}',
    ], ids=["top-level", "under-vertices"])
    def test_deep_nesting_is_an_error(self, tmp_path, capsys, text):
        # the JSON decoder recurses once per level and would end in a
        # RecursionError traceback
        path = tmp_path / "datum.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "coords", "--datum", str(path), "--coord", "1,2")
        assert code == 2 and out == ""
        assert err == "error: datum nesting is too deep\n"

    @pytest.mark.parametrize("edit, bad", [
        (lambda d: d["edges"][0].__setitem__(1, 3.0), "3.0"),
        (lambda d: d["legs"].__setitem__(0, 1.0), "1.0"),
        (lambda d: (d["vertices"][0].__setitem__(1, True), d["legs"].__setitem__(0, True)), "True"),
        (lambda d: d["slots"][0].__setitem__(0, "0"), "'0'"),
        (lambda d: d["legs"].__setitem__(0, "x" * 100000), "'xxxxxxxxxxxx...xxxxxxxxxxxxx'"),
        (lambda d: d["vertices"][0].__setitem__(1, "@"), "[[[[[[[...]]]]]]]"),  # "@": 900 nested lists
    ], ids=["float-edge", "float-leg", "bool", "string", "long-string", "deep-list"])
    def test_half_edge_ids_must_be_integers(self, tmp_path, capsys, edit, bad):
        # 3.0 == 3 and True == 1 as dict keys, so such an id would pass
        # the graph's checks and be written back by to_json as it came; a
        # bad id is quoted through reprlib.repr, so the error is one short line
        d = standard_datum(0, 4).to_dict()
        edit(d)
        path = tmp_path / "datum.json"
        path.write_text(json.dumps(d).replace('"@"', "[" * 900 + "0" + "]" * 900), encoding="utf-8")
        code, out, err = run(capsys, "analyze", "--datum", str(path), "--xi-order", "4")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and f"half-edge ids must be integers, not {bad}" in err
        assert err.count("\n") == 1 and len(err) <= 121


# Exact stdout of these commands, pinned byte for byte: a refactor must
# leave the reports unchanged.
GOLDEN_RUNS = {
    "check_seed5.txt": ("check", "--grid", SMALL_GRID, "--seed", "5"),
    "check_seed5.json": ("check", "--grid", SMALL_GRID, "--seed", "5", "--format", "json"),
    "analyze_0_4_xi5.json": ("analyze", "--genus", "0", "--punctures", "4", "--xi-order", "5",
                             "--format", "json"),
    "coords_0_4.json": ("coords", "--genus", "0", "--punctures", "4", "--coord", "2,2",
                        "--format", "json"),
    "trace_pants3.json": ("trace", "--pants", "3", "--coord", "2,0,0,0,1,0", "--format", "json"),
    "trace_0_4.json": ("trace", "--genus", "0", "--punctures", "4", "--coord", "2,2",
                       "--format", "json"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_golden_output(capsys, name):
    code, out, _ = run(capsys, *GOLDEN_RUNS[name])
    assert code == 0
    assert out == (GOLDEN / name).read_text(encoding="utf-8")
