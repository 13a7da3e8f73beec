"""Command-line front end: parsing, exit codes, payloads, round trips."""

import hashlib
import json
import math

import pytest

from ctoconv import asymptotic, cli
from ctoconv.errors import ParseError, ValidationError

from conftest import FLOATS


MINIMAL = {
    "gibbs": {"weights": ["1/2", "1/2"]},
    "source": {"columns": [["1", "0"]]},
    "target": {"columns": [["3/4", "1/4"]]},
}

SUBTHRESHOLD = {
    "gibbs": {"weights": ["1/2", "1/2"]},
    "source": {"columns": [["2/5", "0"], ["3/10", "3/10"]]},
    "target": {"columns": [["3/4", "1/4"]]},
}

THERMAL_TO_PURE = {
    "gibbs": {"weights": ["2/3", "1/3"]},
    "source": {"columns": [["2/3", "0"], ["0", "1/3"]]},
    "target": {"columns": [["1", "0"]]},
}


def _write(tmp_path, doc, name="inst.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out.strip()
    return code, json.loads(out) if out and out[0] in "[{" else out


class TestParseInstance:
    def test_minimal_rational(self):
        inst = cli.parse_instance(json.dumps(MINIMAL))
        assert inst.ctx.policy.exact
        assert inst.ctx.dim == 2
        assert inst.source.n_branches == 1

    def test_float_mode_detection(self):
        doc = dict(MINIMAL, source={"columns": [[0.5, 0.5]]})
        inst = cli.parse_instance(json.dumps(doc))
        assert not inst.ctx.policy.exact

    def test_energies_imply_float(self):
        doc = {"gibbs": {"beta": 1.0, "energies": [0.0, 1.0]},
               "source": {"columns": [[1, 0]]}}
        inst = cli.parse_instance(json.dumps(doc))
        assert not inst.ctx.policy.exact
        assert inst.ctx.gibbs[0] == pytest.approx(
            1 / (1 + math.exp(-1.0))
        )

    def test_tolerances_come_from_the_policy_field(self, tmp_path, capsys):
        doc = dict(MINIMAL, policy={"mode": "float", "eps_lp": 1e-5})
        assert cli.parse_instance(json.dumps(doc)).ctx.policy.eps_lp == 1e-5
        with pytest.raises(SystemExit) as info:  # no flag overrides it
            cli.main(["check", _write(tmp_path, doc), "--eps", "1e-3"])
        assert info.value.code == 2

    def test_malformed_json(self):
        with pytest.raises(ParseError):
            cli.parse_instance("{not json")

    def test_missing_gibbs(self):
        with pytest.raises(ParseError):
            cli.parse_instance(json.dumps({"source": {"columns": [[1]]}}))

    def test_bad_policy_field(self):
        doc = dict(MINIMAL, policy={"mode": "rational", "bogus": 1})
        with pytest.raises(ParseError):
            cli.parse_instance(json.dumps(doc))

    def test_validation_names_field(self):
        doc = dict(MINIMAL, source={"columns": [["1", "1"]]})
        with pytest.raises(ValidationError, match="source"):
            cli.parse_instance(json.dumps(doc))


class TestCheckCommand:
    def test_convertible_exit_zero(self, tmp_path, capsys):
        code, payload = _run(capsys, ["check",
                                      _write(tmp_path, THERMAL_TO_PURE)])
        assert code == 0
        assert payload["convertible"] is True
        for row in payload["R"]:
            assert sum(eval_frac(x) for x in row) == pytest.approx(1.0)

    def test_subthreshold_exit_one_with_witness(self, tmp_path, capsys):
        code, payload = _run(capsys, ["check", _write(tmp_path, SUBTHRESHOLD)])
        assert code == 1
        assert payload["convertible"] is False
        assert payload["witness"]
        assert eval_frac(payload["omega_value"]) < 0

    def test_missing_source_exit_two(self, tmp_path, capsys):
        doc = {k: v for k, v in MINIMAL.items() if k != "source"}
        code, _ = _run(capsys, ["check", _write(tmp_path, doc)])
        assert code == 2

    def test_malformed_file_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{")
        code, _ = _run(capsys, ["check", str(path)])
        assert code == 2


_PLAN = {"R": [["1"]], "T": {"0,0": [["1", "0"], ["0", "1"]]}}


@pytest.mark.parametrize("argv, doc, plan", [
    (["monotone", "--grid", "uniform:x"], MINIMAL, None),
    (["monotone", "--grid", "uniform:0"], MINIMAL, None),
    (["check"], dict(MINIMAL, policy="rational"), None),
    (["check"], dict(MINIMAL, policy=[["mode", "float"]]), None),
    (["check"], dict(MINIMAL, policy={"eps_lp": "tiny"}), None),
    (["check"], dict(MINIMAL, gibbs={"energies": [0.0, 1.0], "beta": "hot"}), None),
    (["check"], dict(MINIMAL, gibbs={"weights": ["1/2", "1/0"]}), None),
    (["check"], dict(MINIMAL, source={"columns": ["1", "0"]}), None),
    (["check"], dict(MINIMAL, source={"columns": [5]}), None),
    (["apply"], MINIMAL, dict(_PLAN, T={"0,0": 5})),
    (["apply"], MINIMAL, dict(_PLAN, T={"0,0": ["1", "0"]})),
    (["apply"], MINIMAL, dict(_PLAN, R=["1"])),
    (["apply"], MINIMAL, dict(_PLAN, T={})),
    (["apply"], MINIMAL, dict(_PLAN, T={"0,0": [["1", "0"], ["1"]]})),
    (["apply"], MINIMAL, dict(_PLAN, T=dict(_PLAN["T"], **{"-1,0": _PLAN["T"]["0,0"]}))),
], ids=["grid-not-int", "grid-zero", "policy-string", "policy-list", "eps-text",
        "beta-text", "weight-div-zero", "columns-flat", "column-int", "map-int",
        "map-flat", "control-flat", "map-missing", "map-ragged", "map-index-negative"])
def test_malformed_field_exits_two(tmp_path, capsys, argv, doc, plan):
    """A malformed field is an input error: exit 2 with one 'error:' line on
    stderr and nothing on stdout, never a traceback or the 'no' code 1."""
    files = [_write(tmp_path, doc)]
    if plan is not None:  # apply PLAN FILE
        files.insert(0, _write(tmp_path, plan, "plan.json"))
    code = cli.main(argv[:1] + files + argv[1:])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("error:")


def eval_frac(x):
    """Decode a JSON number or 'a/b' string to float."""
    if isinstance(x, str):
        num, _, den = x.partition("/")
        return float(num) / float(den or 1)
    return float(x)


class TestOtherCommands:
    def test_pmin(self, tmp_path, capsys):
        code, payload = _run(capsys, ["pmin", _write(tmp_path, MINIMAL)])
        assert code == 0
        assert payload["p_min"] == "1/2"

    def test_witness_on_convertible(self, tmp_path, capsys):
        code, payload = _run(capsys, ["witness",
                                      _write(tmp_path, THERMAL_TO_PURE)])
        assert code == 0
        assert payload == {"convertible": True}

    def test_synth_apply_roundtrip(self, tmp_path, capsys):
        inst = _write(tmp_path, THERMAL_TO_PURE)
        plan = str(tmp_path / "plan.json")
        code, payload = _run(capsys, ["synth", inst, "-o", plan])
        assert code == 0
        assert payload == {"plan": plan}
        code, payload = _run(capsys, ["apply", plan, inst, "--expect-target"])
        assert code == 0
        assert [[eval_frac(x) for x in col] for col in payload["columns"]] \
            == [[1.0, 0.0]]

    @pytest.mark.parametrize("mode, digest", [
        ("rational", "a03f80cd89de87bcf5600a58e4810cb4a84c594b17571b6f583e5863f25d6606"),
        ("float", "ab3b357ba1e727aab712d0d90c93a655c5713b0b94be87c7d0c07158163f702a"),
    ])
    def test_synth_plan_is_pinned(self, tmp_path, capsys, mode, digest):
        """The plan `ctoconv synth` prints is fixed: its dense maps are the
        product of the factors synthesis keeps, entry for entry.  Each digest
        is that of the output when plans still held an identity map for each
        (x, y) with R[x][y] = 0 (4 of 9 here), with those `T` entries removed:
        the 5 maps kept are unchanged."""
        cli.main(["random", "--mode", mode, "--d", "6", "--l", "3", "--m", "3",
                  "--seed", "5"])
        path = tmp_path / "inst.json"
        path.write_text(capsys.readouterr().out)
        assert cli.main(["synth", str(path)]) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == digest

    def test_apply_mismatch_exit_one(self, tmp_path, capsys):
        inst = _write(tmp_path, THERMAL_TO_PURE)
        plan_path = tmp_path / "plan.json"
        ident = [["1", "0"], ["0", "1"]]
        plan_path.write_text(json.dumps(
            {"R": [["1"], ["1"]],
             "T": {"0,0": ident, "1,0": ident}}
        ))
        code, _ = _run(capsys, ["apply", str(plan_path), inst,
                                "--expect-target"])
        assert code == 1

    def test_apply_branch_count_mismatch_said_on_stderr(self, tmp_path, capsys):
        """A result with another number of branches than the target exits 1
        with a mismatch line on stderr, as a deviation does."""
        inst = _write(tmp_path, MINIMAL)
        ident = [["1", "0"], ["0", "1"]]
        plan = _write(tmp_path, {"R": [["1/2", "1/2"]], "T": {"0,0": ident, "0,1": ident}},
                      "plan.json")
        assert cli.main(["apply", plan, inst, "--expect-target"]) == 1
        assert capsys.readouterr().err == "mismatch: 2 output branches, target has 1\n"

    def test_apply_needs_maps_only_for_used_pairs(self, tmp_path, capsys):
        """A plan file may list unused pairs, (x, y) with R[x][y] = 0, or
        leave them out; one missing a used pair is refused, exit 2."""
        doc = dict(MINIMAL, source={"columns": [["1/2", "0"], ["1/4", "1/4"]]})
        inst = _write(tmp_path, dict(doc, target=doc["source"]))
        ident = [["1", "0"], ["0", "1"]]
        plan_path = tmp_path / "plan.json"
        for maps, want in [(("0,0", "0,1", "1,0", "1,1"), 0), (("0,0", "1,1"), 0),
                           (("0,0", "0,1"), 2)]:
            plan_path.write_text(json.dumps(
                {"R": [["1", "0"], ["0", "1"]], "T": {k: ident for k in maps}}))
            assert cli.main(["apply", str(plan_path), inst, "--expect-target"]) == want
        assert "(x, y) = (1, 1)" in capsys.readouterr().err

    def test_apply_mismatch_exact_in_rational_mode(self, tmp_path, capsys):
        # off by 1e-9, inside eps_lp: only an exact comparison sees it
        doc = dict(MINIMAL, target={
            "columns": [["999999999/1000000000", "1/1000000000"]]})
        inst = _write(tmp_path, doc)
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(
            {"R": [["1"]], "T": {"0,0": [["1", "0"], ["0", "1"]]}}
        ))
        code, _ = _run(capsys, ["apply", str(plan_path), inst,
                                "--expect-target"])
        assert code == 1

    def test_rate(self, tmp_path, capsys):
        doc = {
            "gibbs": {"beta": 1.0, "energies": [0.0, 0.0]},
            "source": {"columns": [[1.0, 0.0]]},
            "target": {"columns": [[0.75, 0.25]]},
        }
        code, payload = _run(capsys, ["rate", _write(tmp_path, doc)])
        assert code == 0
        assert payload["rate"] == pytest.approx(5.30, abs=0.01)

    def test_rate_free_target_reports_inf(self, tmp_path, capsys):
        doc = {
            "gibbs": {"weights": ["1/2", "1/2"]},
            "source": {"columns": [["1", "0"]]},
            "target": {"columns": [["1/2", "1/2"]]},
        }
        code, payload = _run(capsys, ["rate", _write(tmp_path, doc)])
        assert code == 0
        assert payload["rate"] == "inf"

    @pytest.mark.parametrize("raw", [False, True], ids=["relative", "raw"])
    def test_rate_computes_each_free_energy_once(self, tmp_path, capsys,
                                                 monkeypatch, raw):
        calls = []
        orig = asymptotic.resource_value

        def spy(*args, **kwargs):
            calls.append(args[0])
            return orig(*args, **kwargs)

        monkeypatch.setattr(asymptotic, "resource_value", spy)
        doc = {
            "gibbs": {"beta": 1.0, "energies": [0.0, 0.0]},
            "source": {"columns": [[1.0, 0.0]]},
            "target": {"columns": [[0.75, 0.25]]},
        }
        code, _ = _run(capsys, ["rate", _write(tmp_path, doc)] + ["--raw"] * raw)
        assert code == 0
        assert len(calls) == 2

    def test_lorenz_csv_diagonal(self, tmp_path, capsys):
        doc = {
            "gibbs": {"weights": ["2/3", "1/3"]},
            "source": {"columns": [["2/3", "1/3"]]},
        }
        code = cli.main(["lorenz", _write(tmp_path, doc), "--csv"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        pts = [tuple(map(float, ln.split(","))) for ln in lines]
        assert pts == [(0.0, 0.0), (1.0, 1.0)]
        for s, t in pts:
            assert t == pytest.approx(s)

    def test_lorenz_json_multi_column(self, tmp_path, capsys):
        code, payload = _run(capsys, ["lorenz",
                                      _write(tmp_path, THERMAL_TO_PURE)])
        assert code == 0
        assert len(payload["curves"]) == 2

    def test_lorenz_csv_needs_single_column(self, tmp_path, capsys):
        code, _ = _run(capsys, ["lorenz", _write(tmp_path, THERMAL_TO_PURE),
                                "--csv"])
        assert code == 2

    def test_monotone_sigma_grid(self, tmp_path, capsys):
        code, payload = _run(capsys, ["monotone", _write(tmp_path, MINIMAL),
                                      "--grid", "sigma"])
        assert code == 0
        assert payload["abscissae"] == ["1/2"]
        assert eval_frac(payload["source"][0]) == 1.0
        assert eval_frac(payload["target"][0]) == pytest.approx(0.75)
        assert payload["f_source"] >= payload["f_target"]

    def test_monotone_uniform_grid(self, tmp_path, capsys):
        code, payload = _run(capsys, ["monotone", _write(tmp_path, MINIMAL),
                                      "--grid", "uniform:4"])
        assert code == 0
        assert len(payload["abscissae"]) == 4

    def test_embed(self, tmp_path, capsys):
        doc = {
            "gibbs": {"weights": ["2/3", "1/3"]},
            "source": {"columns": [["1/2", "0"], ["1/10", "2/5"]]},
        }
        code, payload = _run(capsys, ["embed", _write(tmp_path, doc)])
        assert code == 0
        assert payload["gibbs"] == ["1/3", "1/3", "1/3"]
        assert payload["states"][0] == ["1/2", "1/2", "0"]
        assert payload["states"][1] == ["4/5", "1/10", "1/10"]

    def test_random_emits_convertible_instance(self, tmp_path, capsys):
        code, payload = _run(capsys, ["random", "--d", "3", "--l", "2",
                                      "--m", "2", "--seed", "5",
                                      "--mode", "rational"])
        assert code == 0
        path = tmp_path / "rand.json"
        path.write_text(json.dumps(payload))
        code, verdict = _run(capsys, ["check", str(path)])
        assert code == 0
        assert verdict["convertible"] is True

    def test_policy_override(self, tmp_path, capsys):
        code, payload = _run(capsys, ["pmin", _write(tmp_path, MINIMAL),
                                      "--policy", "float"])
        assert code == 0
        assert payload["p_min"] == pytest.approx(0.5)
