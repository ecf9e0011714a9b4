import json
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conecalc import cli, lattice, stability
from conecalc.cli import emit, main, run_config
from conecalc.errors import SchemaError
from conecalc.jsonio import canonical_dumps, matrix_from_json, matrix_to_json

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden"


def load(name: str) -> dict:
    return json.loads((CONFIGS / name).read_text())


class TestCanonicalJson:
    def test_sorted_keys_and_float_format(self):
        text = canonical_dumps({"b": 1.0, "a": [True, None, 2]})
        assert text == '{"a":[true,null,2],"b":1.000000000000e+00}'

    def test_infinity_sentinel(self):
        assert canonical_dumps({"s": math.inf}) == '{"s":"inf"}'

    def test_negative_zero_normalized(self):
        assert canonical_dumps(-0.0) == canonical_dumps(0.0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            canonical_dumps(float("nan"))

    def test_matrix_round_trip(self):
        mat = matrix_from_json([[0, [1, -2]], [[1, 2], 0.5]])
        assert mat[0, 1] == 1 - 2j and mat[1, 1] == 0.5
        again = matrix_from_json(matrix_to_json(mat))
        assert (again == mat).all()

    def test_plain_numbers_are_real_entries(self):
        mat = matrix_from_json([[0, 1], [1, 0]])
        assert (mat.imag == 0).all()


class TestRunConfig:
    def test_classify_passes(self):
        report, extra = run_config(load("classify_flip.json"), "0" * 64)
        assert report["status"] == "pass"
        assert report["payload"]["preserving"] is True
        assert report["payload"]["improving"] is False
        assert extra == {}

    def test_determinism(self):
        config = load("lattice_ell3.json")
        rep1, extra1 = run_config(config, "a" * 64)
        rep2, extra2 = run_config(config, "a" * 64)
        assert canonical_dumps(rep1) == canonical_dumps(rep2)
        assert extra1 == extra2

    def test_unknown_cone_id_is_schema_error(self):
        config = load("classify_flip.json")
        config["params"]["cone"] = "nope"
        with pytest.raises(SchemaError):
            run_config(config, "0" * 64)

    def test_bad_version_is_schema_error(self):
        config = load("classify_flip.json")
        config["version"] = 2
        with pytest.raises(SchemaError):
            run_config(config, "0" * 64)

    def test_mu_task(self):
        report, _ = run_config(load("mu_flip.json"), "0" * 64)
        assert report["status"] == "pass"
        assert report["payload"]["mu_snapped"] == 1.0

    def test_mu_task_fails_on_noncommuting_observable(self):
        config = load("mu_flip.json")
        config["operators"][1]["entries"] = [[1, 0], [0, -1]]
        report, _ = run_config(config, "0" * 64)
        assert report["status"] == "fail"
        assert report["payload"]["error_type"] == "NotCommuting"

    def test_chain_task(self):
        report, _ = run_config(load("chain_two_level.json"), "0" * 64)
        assert report["status"] == "pass"
        assert report["payload"]["overlaps"][0] == pytest.approx(1.0, abs=1e-10)
        assert report["payload"]["quantum_numbers"]["mu_snapped"] == [1.0, 1.0]

    def test_chain_task_checks_each_link_once(self, arrow_calls):
        run_config(load("chain_two_level.json"), "0" * 64)
        assert len(arrow_calls) == 1

    def test_chain_task_with_observable_reports_the_failed_link(self):
        config = load("chain_two_level.json")
        config["embeddings"][0]["vector"] = [0.7071067811865476, -0.7071067811865476]
        report, _ = run_config(config, "0" * 64)
        assert report["status"] == "fail"
        assert report["payload"] == {"reason": "link 0: cone inheritance failed",
                                     "error_type": "LinkFailed", "index": 0}

    def test_trotter_task(self):
        report, _ = run_config(load("trotter_pair.json"), "0" * 64)
        assert report["status"] == "pass"
        assert all(report["payload"]["positivity_ok"])
        assert report["payload"]["converges"] is True

    def test_lattice_task_payload_and_dot(self):
        report, extra = run_config(load("lattice_ell3.json"), "0" * 64)
        assert report["status"] == "pass"
        assert report["payload"]["diagram"]["node_count"] == 8
        assert report["payload"]["diagram"]["edge_count"] == 12
        assert report["payload"]["assumptions"]["ok"] is True
        assert set(extra) == {"hasse.dot"}
        assert extra["hasse.dot"].startswith("digraph hasse {")

    def test_lattice_task_checks_the_spec_once(self, monkeypatch):
        calls = []
        original = lattice.verify_spec

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for module in (cli, lattice):
            if getattr(module, "verify_spec", None) is original:
                monkeypatch.setattr(module, "verify_spec", counting)
        report, _ = run_config(load("lattice_ell3.json"), "0" * 64)
        assert report["status"] == "pass"
        assert len(calls) == 1

    def test_lattice_factor_spaces_need_no_slot_names(self, tmp_path):
        # Y_1 declared on a space named slotA: the lattice of lattice_ell3,
        # whose report differs from the golden one by its config digest alone
        config = load("lattice_ell3.json")
        config["spaces"]["slotA"] = config["spaces"].pop("f1")
        for entry in config["operators"]:
            if entry["space"] == "f1":
                entry["space"] = "slotA"
        path = tmp_path / "renamed.json"
        path.write_text(json.dumps(config))
        assert main(["lattice", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        golden = GOLDEN / "lattice_ell3"
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        want = json.loads((golden / "report.json").read_text())
        assert report.pop("config_digest") != want.pop("config_digest")
        assert report == want
        assert (tmp_path / "out" / "hasse.dot").read_bytes() == (golden / "hasse.dot").read_bytes()

    def test_richness_task(self):
        report, _ = run_config(load("richness_depth5.json"), "0" * 64)
        assert report["status"] == "pass"
        assert report["payload"]["dims"] == [2, 4, 8, 16, 32, 64]
        snapped = report["payload"]["quantum_numbers"]["mu_snapped"]
        assert len(set(snapped)) == 1

    def test_weak_equiv_coupled_fixture(self):
        report, _ = run_config(load("weak_equiv_4x4.json"), "0" * 64)
        assert report["status"] == "pass"
        assert report["payload"]["equivalence"]["equivalent"] is False
        assert report["payload"]["weak"]["weak"] is False

    def test_weak_equiv_checks_only_the_reduced_states(self, monkeypatch):
        # the joint ground projector is a density matrix by construction; the
        # density check runs on the two reduced states alone
        dims = []
        original = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a, *args, **kwargs: dims.append(a.shape[0])
                            or original(a, *args, **kwargs))
        run_config(load("weak_equiv_4x4.json"), "0" * 64)
        assert dims == [2, 2]

    def test_weak_equiv_decoupled_fixture(self):
        report, _ = run_config(load("weak_equiv_decoupled.json"), "0" * 64)
        assert report["payload"]["equivalence"]["equivalent"] is True
        assert report["payload"]["weak"]["weak"] is True
        omega = report["payload"]["weak"]["omega"]
        assert omega[0][0] == pytest.approx(1 / math.sqrt(2), abs=1e-10)

    def test_weak_equiv_reads_the_environment_operator_at_the_config_tolerance(self):
        # L couples its two levels by 3e-10: reducible at the default 1e-9,
        # irreducible at 1e-11, where both halves of the report are read
        config = load("weak_equiv_decoupled.json")
        h_star = np.array([[0.0, -1.0], [-1.0, 0.0]])
        env = np.array([[0.5, -3e-10], [-3e-10, 0.0]])
        h2 = np.kron(h_star, np.eye(2)) + np.kron(np.eye(2), env)
        config["operators"][1]["entries"] = h2.tolist()
        config["tolerances"] = {"default": 1e-11}
        report, _ = run_config(config, "0" * 64)
        assert report["payload"]["equivalence"]["equivalent"] is True
        assert report["payload"]["weak"]["weak"] is True
        # at the default tolerance the weak check refuses the environment
        # vector first, so the report carries no equivalence verdict
        del config["tolerances"]
        report, _ = run_config(config, "0" * 64)
        assert report["status"] == "fail"

    def test_stability_task(self):
        report, _ = run_config(load("stability_demo.json"), "0" * 64)
        assert report["status"] == "pass"
        assert len(report["payload"]["members"]) == 2
        mus = {m["mu_star"] for m in report["payload"]["members"]}
        assert mus == {report["payload"]["mu_star"]}

    def test_spin_demo_task(self):
        report, _ = run_config(load("spin_demo_n4.json"), "0" * 64)
        assert report["status"] == "pass"
        assert report["payload"]["mu_snapped"] == pytest.approx(0.0, abs=1e-8)


class TestEmit:
    def test_writes_expected_files_only(self, tmp_path):
        report, extra = run_config(load("lattice_ell3.json"), "b" * 64)
        emit(report, tmp_path / "out", extra)
        names = sorted(p.name for p in (tmp_path / "out").iterdir())
        assert names == ["hasse.dot", "report.json"]

    def test_bytes_stable_across_runs(self, tmp_path):
        config = load("lattice_ell3.json")
        for run in ("one", "two"):
            report, extra = run_config(config, "c" * 64)
            emit(report, tmp_path / run, extra)
        first = (tmp_path / "one" / "report.json").read_bytes()
        second = (tmp_path / "two" / "report.json").read_bytes()
        assert first == second
        assert (tmp_path / "one" / "hasse.dot").read_bytes() == \
            (tmp_path / "two" / "hasse.dot").read_bytes()

    def test_report_is_valid_json(self, tmp_path):
        report, extra = run_config(load("classify_flip.json"), "d" * 64)
        emit(report, tmp_path, extra)
        parsed = json.loads((tmp_path / "report.json").read_text())
        assert parsed["task"] == "classify"
        assert parsed["config_digest"] == "d" * 64


class TestMainExitCodes:
    def test_pass_is_zero(self, tmp_path, capsys):
        code = main(["classify", "--config", str(CONFIGS / "classify_flip.json"),
                     "--out", str(tmp_path)])
        assert code == 0
        assert "pass" in capsys.readouterr().out

    def test_fail_is_one(self, tmp_path):
        bad = json.loads((CONFIGS / "mu_flip.json").read_text())
        bad["operators"][1]["entries"] = [[1, 0], [0, -1]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code = main(["mu", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["status"] == "fail"

    def test_schema_error_is_two(self, tmp_path, capsys):
        bad = json.loads((CONFIGS / "classify_flip.json").read_text())
        bad["params"]["cone"] = "nope"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code = main(["classify", "--config", str(path), "--out", str(tmp_path)])
        assert code == 2
        assert "schema error" in capsys.readouterr().err

    def test_task_mismatch_is_schema_error(self, tmp_path, capsys):
        code = main(["mu", "--config", str(CONFIGS / "classify_flip.json"),
                     "--out", str(tmp_path)])
        assert code == 2

    def test_missing_config_is_schema_error(self, tmp_path, capsys):
        assert main(["classify", "--out", str(tmp_path)]) == 2

    def test_unwritable_out_dir_is_one(self, tmp_path, capsys):
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("file in the way")
        code = main(["classify", "--config", str(CONFIGS / "classify_flip.json"),
                     "--out", str(blocker / "sub")])
        assert code == 1

    def test_spin_demo_via_flags(self, tmp_path, capsys):
        code = main(["spin-demo", "--sites", "4", "--partition", "1,2/3,4",
                     "--sector", "0", "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["payload"]["s_star"] == 0.0


class TestInterfaceKnobs:
    def test_tolerance_override_flag(self, tmp_path):
        code = main(["classify", "--config", str(CONFIGS / "classify_flip.json"),
                     "--out", str(tmp_path), "--tol", "1e-6"])
        assert code == 0

    def test_cone_serialization_round_trip(self):
        import numpy as np

        from conecalc.cones import tensor_cone, orthant
        from conecalc.jsonio import cone_from_json, cone_to_json

        cone = tensor_cone(orthant("a", 2), orthant("b", 3), label="demo")
        blob = cone_to_json(cone)
        assert blob["space"] == "a*b" and blob["label"] == "demo"
        again = cone_from_json(blob)
        assert np.array_equal(again.generators, cone.generators)


CLASSIFY_TEXT = (CONFIGS / "classify_flip.json").read_text()
WITH_TOLERANCE = CLASSIFY_TEXT.replace('"task"', '"tolerances": {"default": TOL},\n  "task"')


@pytest.mark.parametrize("text, extra_args", [
    pytest.param(CLASSIFY_TEXT.replace("[[0, 1]", "[[NaN, 1]"), [], id="nan-token"),
    pytest.param(CLASSIFY_TEXT.replace("[[0, 1]", "[[Infinity, 1]"), [], id="infinity-token"),
    pytest.param(CLASSIFY_TEXT.replace("[[0, 1]", "[[-Infinity, 1]"), [], id="minus-infinity-token"),
    pytest.param(CLASSIFY_TEXT.replace("[[0, 1]", "[[1e400, 1]"), [], id="overflowing-entry"),
    pytest.param(CLASSIFY_TEXT.replace("[[0, 1]", "[[[0, -1e400], 1]"), [],
                 id="overflowing-imaginary-part"),
    pytest.param(CLASSIFY_TEXT.replace("[[0, 1]", "[[" + "9" * 400 + ", 1]"), [],
                 id="overflowing-integer"),
    pytest.param(WITH_TOLERANCE.replace("TOL", '"abc"'), [], id="tolerance-abc"),
    pytest.param(WITH_TOLERANCE.replace("TOL", "true"), [], id="tolerance-bool"),
    pytest.param(WITH_TOLERANCE.replace("TOL", "-1"), [], id="tolerance-negative"),
    pytest.param(WITH_TOLERANCE.replace("TOL", "0"), [], id="tolerance-zero"),
    pytest.param(WITH_TOLERANCE.replace("TOL", "1e400"), [], id="tolerance-overflow"),
    pytest.param(CLASSIFY_TEXT, ["--tol", "-1"], id="tol-flag-negative"),
    pytest.param(CLASSIFY_TEXT, ["--tol", "0"], id="tol-flag-zero"),
    pytest.param(CLASSIFY_TEXT, ["--tol", "nan"], id="tol-flag-nan"),
    pytest.param(CLASSIFY_TEXT, ["--tol", "inf"], id="tol-flag-inf"),
    pytest.param(CLASSIFY_TEXT, ["--tol", "0.8"], id="tol-flag-past-inheritance-limit"),
    pytest.param(WITH_TOLERANCE.replace("TOL", "0.7071067811865476"), [],
                 id="tolerance-at-inheritance-limit"),
])
def test_bad_numeric_input_exits_two_and_writes_nothing(text, extra_args, tmp_path, capsys):
    assert_schema_error_writes_nothing("classify", text, extra_args, tmp_path, capsys)


def assert_schema_error_writes_nothing(task, text, extra_args, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(text)
    out = tmp_path / "out"
    code = main([task, "--config", str(config), "--out", str(out), *extra_args])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("conecalc: schema error: ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert not out.exists()
    return captured.err


SPIN_TEXT = (CONFIGS / "spin_demo_n4.json").read_text()
SPIN_A = '"sublattice_a": [1, 2]'


@pytest.mark.parametrize("text", [
    pytest.param(SPIN_TEXT.replace('"sector_m": 0', '"sector_m": "abc"'), id="sector-abc"),
    pytest.param(SPIN_TEXT.replace('"sector_m": 0', '"sector_m": 1e400'), id="sector-overflow"),
    pytest.param(SPIN_TEXT.replace('"sector_m": 0', '"sector_m": true'), id="sector-bool"),
    pytest.param(SPIN_TEXT.replace(SPIN_A, '"sublattice_a": [1.0, 2]'), id="site-float"),
    pytest.param(SPIN_TEXT.replace(SPIN_A, '"sublattice_a": ["1", 2]'), id="site-string"),
    pytest.param(SPIN_TEXT.replace(SPIN_A, '"sublattice_a": [[1], 2]'), id="site-list"),
    pytest.param(SPIN_TEXT.replace(SPIN_A, '"sublattice_a": [0, 2]'), id="site-zero"),
    pytest.param(SPIN_TEXT.replace(SPIN_A, '"sublattice_a": [1, 5]'), id="site-past-last"),
    pytest.param(SPIN_TEXT.replace(SPIN_A, '"sublattice_a": [true, 2]'), id="site-bool"),
    pytest.param(SPIN_TEXT.replace(SPIN_A, '"sublattice_a": [1, 1, 2]'), id="site-repeated"),
    pytest.param(SPIN_TEXT.replace(SPIN_A, SPIN_A + ', "sublattice_b": [2, 3, 4]'),
                 id="sublattices-overlap"),
    pytest.param(SPIN_TEXT.replace(SPIN_A, SPIN_A + ', "sublattice_b": 3'),
                 id="sublattice-b-not-list"),
    pytest.param(SPIN_TEXT.replace(SPIN_A, SPIN_A + ', "sublattice_b": [3]'),
                 id="sublattices-miss-a-site"),
    pytest.param(SPIN_TEXT.replace('"sites": 4', '"sites": 4.0'), id="sites-float"),
])
def test_malformed_spin_demo_exits_two_and_writes_nothing(text, tmp_path, capsys):
    assert text != SPIN_TEXT
    err = assert_schema_error_writes_nothing("spin-demo", text, [], tmp_path, capsys)
    assert err.startswith("conecalc: schema error: spin-demo ")


def test_spin_demo_sector_flag_must_be_finite(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["spin-demo", "--sites", "4", "--partition", "1,2/3,4", "--sector", "nan",
                 "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2 and captured.err.count("\n") == 1 and not out.exists()


def test_empty_spin_sector_stays_a_failed_verification(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(SPIN_TEXT.replace('"sector_m": 0', '"sector_m": 0.25'))
    out = tmp_path / "out"
    assert main(["spin-demo", "--config", str(config), "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "fail"
    assert report["payload"]["error_type"] == "PreconditionFailed"


def test_spin_sites_past_the_cap_fail_before_any_site_list_is_built():
    config = {"version": 1, "task": "spin-demo",
              "params": {"sites": 10 ** 6, "sublattice_a": [1]}}
    tracemalloc.start()
    try:
        report, _ = run_config(config, "0" * 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["status"] == "fail"
    assert report["payload"]["error_type"] == "DimCap"
    assert peak < 1_000_000


TROTTER_TEXT = (CONFIGS / "trotter_pair.json").read_text()
RICHNESS_TEXT = (CONFIGS / "richness_depth5.json").read_text()
STABILITY_TEXT = (CONFIGS / "stability_demo.json").read_text()


@pytest.mark.parametrize("task, text", [
    ("richness", RICHNESS_TEXT.replace('"depth": 5', '"depth": 40')),
    ("stability", STABILITY_TEXT.replace('"depth": 2', '"depth": 40')),
], ids=["richness", "stability-tower"])
def test_tower_past_the_cap_fails_before_any_level_is_built(task, text, monkeypatch):
    def refuse_level(*args, **kwargs):  # a missing cap fails here, not by exhausting memory
        raise AssertionError("a tower level was built")

    monkeypatch.setattr(stability, "_kronecker_sum", refuse_level)
    tracemalloc.start()
    try:
        report, _ = run_config(json.loads(text), "0" * 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["status"] == "fail"
    assert report["payload"]["error_type"] == "DimCap"
    assert report["payload"]["reason"] == "tower dimension 2 * 2^40 exceeds cap 4096"
    assert peak < 1_000_000


@pytest.mark.parametrize("task, text, message", [
    pytest.param("trotter", TROTTER_TEXT.replace('"s": 0.7', '"s": "abc"'), "trotter s",
                 id="trotter-s-string"),
    pytest.param("trotter", TROTTER_TEXT.replace('"s": 0.7', '"s": true'), "trotter s",
                 id="trotter-s-bool"),
    pytest.param("trotter", TROTTER_TEXT.replace('"t": 1.1', '"t": [1]'), "trotter t",
                 id="trotter-t-list"),
    pytest.param("trotter", TROTTER_TEXT.replace('"beta": 1.0', '"beta": "nan"'),
                 "trotter beta", id="trotter-beta-nan-string"),
    pytest.param("trotter", TROTTER_TEXT.replace('"beta": 1.0', '"beta": 1e400'),
                 "trotter beta", id="trotter-beta-overflow"),
    pytest.param("trotter", TROTTER_TEXT.replace('"n_values": [1, 2,', '"n_values": [true, 2,'),
                 "n_values", id="trotter-n-values-bool"),
    pytest.param("richness", RICHNESS_TEXT.replace('"depth": 5', '"depth": true'), "depth",
                 id="richness-depth-bool"),
    pytest.param("richness", RICHNESS_TEXT.replace('"base": 2', '"base": true'), "space",
                 id="space-dim-bool"),
    pytest.param("stability", STABILITY_TEXT.replace('"depth": 2', '"depth": true'),
                 "tower depth", id="tower-depth-bool"),
])
def test_malformed_number_exits_two_and_writes_nothing(task, text, message, tmp_path, capsys):
    err = assert_schema_error_writes_nothing(task, text, [], tmp_path, capsys)
    assert err.startswith(f"conecalc: schema error: {message}")


CHAIN_TEXT = (CONFIGS / "chain_two_level.json").read_text()
ORTHANT_P0 = '{"name": "P0", "kind": "orthant", "space": "base"}'
UP_VECTOR = '"vector": [0.7071067811865476, 0.7071067811865476]'


def explicit_p0(generators: str) -> str:
    return CHAIN_TEXT.replace(
        ORTHANT_P0, '{"name": "P0", "kind": "explicit", "space": "base", "generators": '
        + generators + "}")


@pytest.mark.parametrize("text, message", [
    pytest.param(explicit_p0("[[1, 0], [1, 1]]"), "cone 'P0'", id="explicit-not-orthonormal"),
    pytest.param(explicit_p0("[[1, 0]]"), "cone 'P0'", id="explicit-too-few-generators"),
    pytest.param(explicit_p0("[[1, 0, 0], [0, 1, 0]]"), "cone 'P0'",
                 id="explicit-generators-too-long"),
    pytest.param(explicit_p0("[[1, 0], [0, 1, 0]]"), "cone 'P0'", id="explicit-ragged-generators"),
    pytest.param(explicit_p0("5"), "cone 'P0'", id="explicit-generators-not-a-list"),
    pytest.param(explicit_p0("[[1, 0], [0, 1]]").replace(
        '"explicit", "space": "base"', '"explicit", "space": "nowhere"'), "unknown space id",
        id="explicit-unknown-space"),
    pytest.param(CHAIN_TEXT.replace(UP_VECTOR, '"vector": [1, 1]'), "embedding 'up'",
                 id="append-vector-not-normalized"),
    pytest.param(CHAIN_TEXT.replace('"append_vector"', '"isometry"').replace(
        UP_VECTOR, '"matrix": [[1, 0], [1, 0], [0, 1], [0, 0]]'), "embedding 'up'",
        id="isometry-not-orthonormal"),
])
def test_malformed_cone_or_embedding_exits_two_and_writes_nothing(text, message, tmp_path, capsys):
    assert text != CHAIN_TEXT
    err = assert_schema_error_writes_nothing("chain", text, [], tmp_path, capsys)
    assert err.startswith(f"conecalc: schema error: {message}")


class TestModuleEntryPoint:
    def test_python_dash_m(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "conecalc", "classify",
             "--config", str(CONFIGS / "classify_flip.json"),
             "--out", str(tmp_path)],
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "report.json").exists()
