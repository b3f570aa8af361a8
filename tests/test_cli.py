"""Command line behavior: golden outputs, JSON envelopes, exit codes."""

import json
import subprocess
import sys
from fractions import Fraction

import pytest

from svalgebra import AlgebraConfig, Element, Window, bilinear_map_on_window, builtin_derivation, gen, realize
from svalgebra import BiderivationForm
from svalgebra.algebra import format_element
from svalgebra.cli import SHOWN_VIOLATIONS, console_main, main
from svalgebra.parsing import format_operator_lines, format_tensor_lines, parse_tensor_lines
from test_defects import _reference_biderivation_defects

CFG0 = AlgebraConfig(Fraction(0))


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *args):
    code, out, err = run(capsys, *args)
    assert err == ""
    return code, json.loads(out)


class TestBracket:
    def test_human_golden(self, capsys):
        assert run(capsys, "bracket", "L[2]", "L[3]") == (0, "-1*L[5]\n", "")

    def test_json_golden(self, capsys):
        code, out, _ = run(capsys, "bracket", "L[2]", "L[3]", "--json")
        assert code == 0
        assert out == (
            '{"command": "bracket", "epsilon": "0", "window": 6,'
            ' "seed": null, "verdict": "ok", "result": "-1*L[5]"}\n'
        )

    def test_envelope_key_order(self, capsys):
        _, out, _ = run(capsys, "bracket", "L[0]", "M[1]", "--json")
        keys = list(json.loads(out, object_pairs_hook=lambda p: dict(p) | {"__order": [k for k, _ in p]})["__order"])
        assert keys[:5] == ["command", "epsilon", "window", "seed", "verdict"]

    def test_half_parity(self, capsys):
        code, out, _ = run(capsys, "bracket", "Y[1/2]", "Y[3/2]", "--epsilon", "1/2")
        assert (code, out) == (0, "-1*M[2]\n")

    def test_compound_arguments(self, capsys):
        code, out, _ = run(capsys, "bracket", "L[1] + 2*Y[0]", "M[1]", "--json")
        assert code == 0
        assert json.loads(out)["result"] == "-1*M[2]"


class TestJacobi:
    def test_small_window(self, capsys):
        code, payload = run_json(capsys, "jacobi", "-N", "2", "--json")
        assert code == 0
        assert payload["verdict"] == "holds"
        assert payload["checked"] == 575
        assert payload["violations"] == []


class TestPostlie:
    def test_witness_json_golden(self, capsys):
        code, out, _ = run(capsys, "postlie", "--lambda", "1", "-N", "5", "--json")
        assert code == 1
        assert out == (
            '{"command": "postlie", "epsilon": "0", "window": 5, "seed": null,'
            ' "verdict": "witness-found", "trivial": false,'
            ' "witness": {"axiom": "axiom-5", "inputs": ["L[1]", "L[2]"],'
            ' "residual": "-2*L[3]"}, "confirmed": true}\n'
        )

    def test_trivial_product(self, capsys):
        code, payload = run_json(capsys, "postlie", "-N", "6", "--json")
        assert code == 0
        assert payload["verdict"] == "trivial"
        assert payload["witness"] is None and payload["confirmed"] is None

    def test_unconfirmable_witness_is_null(self, capsys):
        # shift 3 at radius 6: the witness instance needs M[8], outside
        code, payload = run_json(capsys, "postlie", "--mu", "3=2017", "-N", "6", "--json")
        assert code == 1
        assert payload["verdict"] == "witness-found"
        assert payload["witness"]["residual"] == "2017*M[9]"
        assert payload["confirmed"] is None

    def test_confirmed_at_wider_window(self, capsys):
        code, payload = run_json(capsys, "postlie", "--mu", "3=2017", "-N", "10", "--json")
        assert code == 1
        assert payload["witness"]["inputs"] == ["L[2]", "L[1]", "L[3]"]
        assert payload["confirmed"] is True

    def test_seed_echoed(self, capsys):
        _, payload = run_json(capsys, "postlie", "--seed", "7", "-N", "5", "--json")
        assert payload["seed"] == 7


class TestOperatorFiles:
    def _write(self, tmp_path, name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    def test_builtin_action_verifies(self, capsys, tmp_path):
        op = builtin_derivation("D1", Window(3), CFG0)
        path = self._write(tmp_path, "d1.txt", format_operator_lines(op.action))
        code, payload = run_json(capsys, "check-derivation", path, "-N", "3", "--json")
        assert code == 0
        assert payload["verdict"] == "derivation"
        assert payload["defects"] == 0

    def test_tampered_action_flagged(self, capsys, tmp_path):
        op = builtin_derivation("D1", Window(3), CFG0)
        lines = format_operator_lines(op.action).splitlines()
        lines = [ln if not ln.startswith("L[0]") else "L[0] -> 1*M[0] + 1*M[1]" for ln in lines]
        path = self._write(tmp_path, "bad.txt", "\n".join(lines))
        code, payload = run_json(capsys, "check-derivation", path, "-N", "3", "--json")
        assert code == 1
        assert payload["verdict"] == "defect-found"
        assert payload["violations"][0]["rule"] == "leibniz"

    def test_decompose(self, capsys, tmp_path):
        text = "\n".join(f"L[{m}] -> {m}*M[{m}]" for m in range(-3, 4))
        path = self._write(tmp_path, "d2.txt", text)
        code, payload = run_json(capsys, "decompose-derivation", path, "-N", "3", "--json")
        assert code == 0
        assert payload["verdict"] == "decomposed"
        assert (payload["a"], payload["b"], payload["c"]) == ("0", "1", "0")
        assert payload["inner_part"] == "0"

    def test_decompose_rejects_non_derivation(self, capsys, tmp_path):
        text = "\n".join(f"L[{m}] -> 1*L[{m}]" for m in range(-3, 4))
        path = self._write(tmp_path, "nd.txt", text)
        code, payload = run_json(capsys, "decompose-derivation", path, "-N", "3", "--json")
        assert code == 1
        assert payload["verdict"] == "not-decomposable"

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "check-derivation", str(tmp_path / "absent.txt"))
        assert code == 2
        assert "absent.txt" in err


class TestTensorFiles:
    def test_classified_tensor_verifies_and_matches(self, capsys, tmp_path):
        w = Window(2)
        f = realize(BiderivationForm(0, {0: 1}), w, CFG0)
        path = tmp_path / "chi.txt"
        path.write_text(format_tensor_lines(f.tensor))
        code, payload = run_json(capsys, "check-biderivation", str(path), "-N", "2", "--json")
        assert code == 0 and payload["verdict"] == "biderivation"
        code, payload = run_json(capsys, "match-form", str(path), "-N", "2", "--json")
        assert code == 0
        assert payload["verdict"] == "matched"
        assert payload["lam"] == "0"
        assert payload["omega"] == {"0": "1"}

    def test_tampered_tensor(self, capsys, tmp_path):
        w = Window(2)
        f = realize(BiderivationForm(1, {}), w, CFG0)
        f.tensor[(gen("L", 0), gen("L", 1))] = f.tensor[(gen("L", 0), gen("L", 1))].scaled(2)
        path = tmp_path / "bad.txt"
        path.write_text(format_tensor_lines(f.tensor))
        code, payload = run_json(capsys, "check-biderivation", str(path), "-N", "2", "--json")
        assert code == 1 and payload["verdict"] == "defect-found"
        code, payload = run_json(capsys, "match-form", str(path), "-N", "2", "--json")
        assert code == 1
        assert payload["verdict"] == "no-match"
        assert payload["lam"] is None

    @pytest.mark.parametrize("epsilon", ["0", "1/2"])
    def test_perturbed_tensor_report_equals_reference(self, capsys, tmp_path, epsilon):
        cfg, w = AlgebraConfig(Fraction(epsilon)), Window(4)
        f = realize(BiderivationForm(Fraction(-5, 3), {-1: 2, 0: Fraction(1, 7)}), w, cfg)
        a, b, h = w.interior_generators(cfg)[1:4]
        f.tensor[(a, b)] = f.tensor[(a, b)] + Element({h: Fraction(3, 4)})
        path = tmp_path / "bumped.tensor"
        path.write_text(format_tensor_lines({k: v for k, v in f.tensor.items() if not v.is_zero}))
        parsed = bilinear_map_on_window(parse_tensor_lines(path.read_text(), cfg), w, cfg)
        ref = _reference_biderivation_defects(parsed, w, cfg)
        assert ref.total > 0
        shown = ref.violations[:SHOWN_VIOLATIONS]
        argv = ["check-biderivation", str(path), "-N", "4", "--epsilon", epsilon]
        code, payload = run_json(capsys, *argv, "--json")
        assert code == 1
        assert (payload["checked"], payload["defects"]) == (ref.checked, ref.total)
        assert payload["violations"] == [
            {"inputs": [str(g) for g in v.inputs], "rule": v.rule, "defect": format_element(v.defect)}
            for v in shown
        ]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (1, "")
        lines = ["defect-found", ref.summary()] + ["  " + v.describe() for v in shown]
        assert out == "\n".join(lines) + "\n"


class TestSolvers:
    def test_solve_derivations(self, capsys):
        code, payload = run_json(capsys, "solve-derivations", "-N", "3", "--json")
        assert code == 0
        assert payload["verdict"] == "classification-confirmed"
        assert payload["kernel_dimension"] == 71
        assert payload["interior_kernel_dimension"] == 17
        assert payload["mutual_membership"] == [True, True]

    def test_solve_biderivations(self, capsys):
        code, payload = run_json(capsys, "solve-biderivations", "-N", "3", "--json")
        assert code == 0
        assert payload["verdict"] == "classification-confirmed"
        assert payload["kernel_dimension"] == 192
        assert payload["shifts"] == ["-1", "0", "1"]

    def test_props(self, capsys):
        code, payload = run_json(capsys, "props", "-N", "4", "--json")
        assert code == 0
        assert payload["verdict"] == "classification-confirmed"
        assert payload["systems"]["prop1"]["kernel_dimension"] == 5
        assert payload["systems"]["prop3"]["interior_kernel_dimension"] == 15
        assert payload["systems"]["prop4"]["free_directions"] == 9


_PROPS_N4_TEXT = (
    "prop1: kernel 5, interior 1 (classified 1), match True\n"
    "prop2: kernel 4, interior 0 (classified 0), match True\n"
    "prop3: kernel 35, interior 15 (classified 15), match True\n"
    "prop4: kernel 9, interior 5 (classified 5), match True\n"
)
_PROPS_N4_SYSTEMS = (
    '"systems": {'
    '"prop1": {"kernel_dimension": 5, "interior_kernel_dimension": 1,'
    ' "interior_predicted_dimension": 1, "free_directions": 0, "interior_match": true},'
    ' "prop2": {"kernel_dimension": 4, "interior_kernel_dimension": 0,'
    ' "interior_predicted_dimension": 0, "free_directions": 0, "interior_match": true},'
    ' "prop3": {"kernel_dimension": 35, "interior_kernel_dimension": 15,'
    ' "interior_predicted_dimension": 15, "free_directions": 18, "interior_match": true},'
    ' "prop4": {"kernel_dimension": 9, "interior_kernel_dimension": 5,'
    ' "interior_predicted_dimension": 5, "free_directions": 9, "interior_match": true}}'
)


class TestClassificationGolden:
    """Full text and JSON output of the classification subcommands, in both
    parities, and of the mismatch branch with a sabotaged classified span."""

    @pytest.mark.parametrize(
        "epsilon, kernel, interior", [("0", 71, 17), ("1/2", 66, 16)]
    )
    def test_solve_derivations(self, capsys, epsilon, kernel, interior):
        args = ("solve-derivations", "-N", "3", "--epsilon", epsilon)
        assert run(capsys, *args) == (
            0,
            f"classification-confirmed\nkernel dimension {kernel}\n"
            f"interior: kernel {interior}, classified {interior}, match True\n",
            "",
        )
        assert run(capsys, *args, "--json") == (
            0,
            f'{{"command": "solve-derivations", "epsilon": "{epsilon}", "window": 3,'
            f' "seed": null, "verdict": "classification-confirmed",'
            f' "kernel_dimension": {kernel}, "interior_kernel_dimension": {interior},'
            f' "interior_predicted_dimension": {interior}, "predicted_in_kernel": true,'
            f' "interior_match": true, "mutual_membership": [true, true]}}\n',
            "",
        )

    @pytest.mark.parametrize("epsilon, kernel", [("0", 192), ("1/2", 158)])
    def test_solve_biderivations(self, capsys, epsilon, kernel):
        args = ("solve-biderivations", "-N", "3", "--epsilon", epsilon)
        assert run(capsys, *args) == (
            0,
            f"classification-confirmed\nkernel dimension {kernel}\n"
            "interior: kernel 4, classified 4, match True\n",
            "",
        )
        assert run(capsys, *args, "--json") == (
            0,
            f'{{"command": "solve-biderivations", "epsilon": "{epsilon}", "window": 3,'
            f' "seed": null, "verdict": "classification-confirmed",'
            f' "shifts": ["-1", "0", "1"], "kernel_dimension": {kernel},'
            ' "interior_kernel_dimension": 4, "interior_predicted_dimension": 4,'
            ' "predicted_in_kernel": true, "interior_match": true,'
            ' "mutual_membership": [true, true]}\n',
            "",
        )

    @pytest.mark.parametrize("epsilon", ["0", "1/2"])
    def test_props(self, capsys, epsilon):
        args = ("props", "-N", "4", "--epsilon", epsilon)
        assert run(capsys, *args) == (0, "classification-confirmed\n" + _PROPS_N4_TEXT, "")
        assert run(capsys, *args, "--json") == (
            0,
            f'{{"command": "props", "epsilon": "{epsilon}", "window": 4, "seed": null,'
            f' "verdict": "classification-confirmed", {_PROPS_N4_SYSTEMS}}}\n',
            "",
        )

    def test_derivation_mismatch(self, capsys, monkeypatch):
        import svalgebra.operators as operators

        full = operators.predicted_derivation_operators
        monkeypatch.setattr(
            operators,
            "predicted_derivation_operators",
            lambda w, cfg: [op for op in full(w, cfg) if op.label != "D3"],
        )
        assert run(capsys, "solve-derivations", "-N", "3") == (
            1,
            "classification-mismatch\nkernel dimension 71\n"
            "interior: kernel 17, classified 16, match False\n",
            "",
        )
        assert run(capsys, "solve-derivations", "-N", "3", "--json") == (
            1,
            '{"command": "solve-derivations", "epsilon": "0", "window": 3, "seed": null,'
            ' "verdict": "classification-mismatch", "kernel_dimension": 71,'
            ' "interior_kernel_dimension": 17, "interior_predicted_dimension": 16,'
            ' "predicted_in_kernel": true, "interior_match": false,'
            ' "mutual_membership": [false, true]}\n',
            "",
        )

    def test_biderivation_mismatch(self, capsys, monkeypatch):
        import svalgebra.biderivations as biderivations

        full = biderivations.predicted_biderivation_maps
        monkeypatch.setattr(
            biderivations, "predicted_biderivation_maps", lambda w, cfg: full(w, cfg)[:-1]
        )
        assert run(capsys, "solve-biderivations", "-N", "3", "--json") == (
            1,
            '{"command": "solve-biderivations", "epsilon": "0", "window": 3, "seed": null,'
            ' "verdict": "classification-mismatch", "shifts": ["-1", "0", "1"],'
            ' "kernel_dimension": 192, "interior_kernel_dimension": 4,'
            ' "interior_predicted_dimension": 3, "predicted_in_kernel": true,'
            ' "interior_match": false, "mutual_membership": [false, true]}\n',
            "",
        )

    def test_props_mismatch_outside_the_interior(self, capsys, monkeypatch):
        # the perturbed entry s[-4; -4] lies outside the interior, so only
        # the predicted-in-kernel check can catch it
        import svalgebra.propositions as propositions

        spike = propositions.prop3_spike

        def perturbed(coords, k):
            v = spike(coords, k)
            if k == 0:
                v[min(v)] += 1
            return v

        monkeypatch.setattr(propositions, "prop3_spike", perturbed)
        assert run(capsys, "props", "-N", "4") == (
            1, "classification-mismatch\n" + _PROPS_N4_TEXT, ""
        )
        assert run(capsys, "props", "-N", "4", "--json") == (
            1,
            '{"command": "props", "epsilon": "0", "window": 4, "seed": null,'
            f' "verdict": "classification-mismatch", {_PROPS_N4_SYSTEMS}}}\n',
            "",
        )


class TestExitCodes:
    def test_usage_small_window_for_solver(self, capsys):
        assert run(capsys, "solve-derivations", "-N", "2")[0] == 2
        assert run(capsys, "props", "-N", "2")[0] == 2
        assert run(capsys, "postlie", "-N", "4")[0] == 2

    def test_usage_bad_element(self, capsys):
        code, _, err = run(capsys, "bracket", "L[oops]", "L[1]")
        assert code == 2
        assert "position" in err

    def test_usage_wrong_parity(self, capsys):
        code, _, err = run(capsys, "bracket", "Y[1/2]", "Y[3/2]")
        assert code == 2
        assert "epsilon" in err

    def test_usage_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_usage_bad_window(self, capsys):
        assert run(capsys, "bracket", "L[0]", "L[1]", "-N", "0")[0] == 2

    def test_usage_bad_epsilon(self, capsys):
        assert run(capsys, "bracket", "L[0]", "L[1]", "--epsilon", "1/3")[0] == 2

    def test_usage_operator_outside_window(self, capsys, tmp_path):
        path = tmp_path / "far.txt"
        path.write_text("L[4] -> 1*M[4]")
        code, _, err = run(capsys, "check-derivation", str(path), "-N", "3")
        assert code == 2
        assert "outside the window" in err

    def test_usage_tensor_outside_window(self, capsys, tmp_path):
        path = tmp_path / "far.tensor"
        path.write_text("(L[0], L[3]) -> 1*L[3]")
        code, _, err = run(capsys, "check-biderivation", str(path), "-N", "2")
        assert code == 2
        assert "outside the window" in err

    @pytest.mark.parametrize(
        "command, text",
        [("check-derivation", "L[0] -> L[oops]"), ("check-biderivation", "(L[0], L[1]) -> L[oops]")],
    )
    def test_usage_malformed_expression_in_file(self, capsys, tmp_path, command, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        code, out, err = run(capsys, command, str(path), "-N", "3")
        assert (code, out) == (2, "")
        assert err == "error: line 1: expected digits (at position 2)\n"

    def test_internal_fault_is_not_a_usage_error(self, capsys, monkeypatch):
        # e.g. a mis-indexed constraint row failing SparseMatrix.add_row
        def broken(w, cfg):
            raise ValueError("row entry outside column range")

        monkeypatch.setattr("svalgebra.cli.classify_derivations", broken)
        with pytest.raises(ValueError, match="column range"):
            main(["solve-derivations", "-N", "3"])
        assert capsys.readouterr().err == ""

    def test_console_entry_point_reports_internal_fault(self, capsys, monkeypatch):
        def broken(w, cfg):
            raise ValueError("row entry outside column range")

        monkeypatch.setattr("svalgebra.cli.classify_derivations", broken)
        assert console_main(["solve-derivations", "-N", "3"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("Traceback (most recent call last):")
        assert captured.err.endswith("ValueError: row entry outside column range\n")


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "svalgebra.cli", "bracket", "L[2]", "L[3]"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "-1*L[5]\n"
