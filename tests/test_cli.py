import json
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conecalc import cli, lattice, numerics, stability
from conecalc.cli import emit, main, run_config
from conecalc.errors import SchemaError
from conecalc.jsonio import canonical_dumps, matrix_from_json, vector_from_json

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

    def test_strings_escape_control_characters_and_keep_non_ascii_raw(self):
        text = "".join(map(chr, range(0x20))) + '"\\\x7f\u00e9\u2028'
        assert json.loads(canonical_dumps(text)) == text
        assert canonical_dumps("\u00e9\n") == '"\u00e9\\n"'

    def test_matrix_round_trip(self):
        mat = matrix_from_json([[0, [1, -2]], [[1, 2], 0.5]])
        assert mat[0, 1] == 1 - 2j and mat[1, 1] == 0.5
        again = matrix_from_json([[[0.0, 0.0], [1.0, -2.0]], [[1.0, 2.0], [0.5, 0.0]]])
        assert (again == mat).all()

    def test_plain_numbers_are_real_entries(self):
        mat = matrix_from_json([[0, 1], [1, 0]])
        assert (mat.imag == 0).all()

    @pytest.mark.parametrize("cell", [True, False, [True, 0.0], [1.0, False]])
    def test_booleans_are_no_entries(self, cell):
        # bool is an int in Python, but true and false are no JSON numbers
        with pytest.raises(SchemaError, match="matrix entry must be a number"):
            matrix_from_json([[cell]])
        with pytest.raises(SchemaError, match="matrix entry must be a number"):
            vector_from_json([1.0, cell])


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

    def test_lattice_task_names_a_non_preserving_factor(self, tmp_path):
        config = load("lattice_ell3.json")
        config["operators"][3]["entries"] = [[0, -1], [-1, 0]]  # y1 negated
        path = tmp_path / "negated.json"
        path.write_text(json.dumps(config))
        assert main(["lattice", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["status"] == "fail"
        assert report["payload"] == {"error_type": "SpecFailed",
                                     "reason": "Y_1 is not cone-preserving on its orthant"}

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
        assert capsys.readouterr().err == "conecalc: schema error: --config is required\n"

    def test_unwritable_out_dir_is_one(self, tmp_path, capsys):
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("file in the way")
        code = main(["classify", "--config", str(CONFIGS / "classify_flip.json"),
                     "--out", str(blocker / "sub")])
        assert code == 1


CLASSIFY_TEXT = (CONFIGS / "classify_flip.json").read_text()
WITH_TOLERANCE = CLASSIFY_TEXT.replace('"task"', '"tolerances": {"default": TOL},\n  "task"')


def test_the_tolerance_is_read_from_the_config_bytes(tmp_path, capsys):
    # off-diagonal entries of 1e-7 beside a unit diagonal are positive at the
    # default tolerance and not at 1e-6; the config sets which, and the
    # digest of its bytes tells the two reports apart
    weak = WITH_TOLERANCE.replace("[[0, 1], [1, 0]]", "[[1, 1e-7], [1e-7, 1]]")
    assert weak != WITH_TOLERANCE
    loose = tmp_path / "loose.json"
    loose.write_text(weak.replace('"tolerances": {"default": TOL},\n  ', ""))
    with pytest.raises(SystemExit) as refused:
        main(["classify", "--config", str(loose), "--out", str(tmp_path / "flag"),
              "--tol", "1e-6"])
    assert refused.value.code == 2
    assert not (tmp_path / "flag").exists()
    reports = []
    for name, text in (("default", loose.read_text()), ("strict", weak.replace("TOL", "1e-6"))):
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        assert main(["classify", "--config", str(path), "--out", str(tmp_path / name)]) == 0
        reports.append(json.loads((tmp_path / name / "report.json").read_text()))
    default, strict = reports
    assert default["payload"]["improving"] is True
    assert default["payload"]["ergodicity"]["ergodic"] is True
    assert strict["payload"]["improving"] is False
    assert strict["payload"]["ergodicity"]["ergodic"] is False
    assert default["config_digest"] != strict["config_digest"]


@pytest.mark.parametrize("text", [
    pytest.param(CLASSIFY_TEXT.replace("[[0, 1]", "[[NaN, 1]"), id="nan-token"),
    pytest.param(CLASSIFY_TEXT.replace("[[0, 1]", "[[Infinity, 1]"), id="infinity-token"),
    pytest.param(CLASSIFY_TEXT.replace("[[0, 1]", "[[-Infinity, 1]"), id="minus-infinity-token"),
    pytest.param(CLASSIFY_TEXT.replace("[[0, 1]", "[[1e400, 1]"), id="overflowing-entry"),
    pytest.param(CLASSIFY_TEXT.replace("[[0, 1]", "[[[0, -1e400], 1]"),
                 id="overflowing-imaginary-part"),
    pytest.param(CLASSIFY_TEXT.replace("[[0, 1]", "[[" + "9" * 400 + ", 1]"),
                 id="overflowing-integer"),
    pytest.param(WITH_TOLERANCE.replace("TOL", '"abc"'), id="tolerance-abc"),
    pytest.param(WITH_TOLERANCE.replace("TOL", "true"), id="tolerance-bool"),
    pytest.param(WITH_TOLERANCE.replace("TOL", "-1"), id="tolerance-negative"),
    pytest.param(WITH_TOLERANCE.replace("TOL", "0"), id="tolerance-zero"),
    pytest.param(WITH_TOLERANCE.replace("TOL", "1e400"), id="tolerance-overflow"),
    pytest.param(WITH_TOLERANCE.replace("TOL", "0.7071067811865476"),
                 id="tolerance-at-inheritance-limit"),
])
def test_bad_numeric_input_exits_two_and_writes_nothing(text, tmp_path, capsys):
    assert_schema_error_writes_nothing("classify", text, tmp_path, capsys)


def assert_schema_error_writes_nothing(task, text, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(text)
    out = tmp_path / "out"
    code = main([task, "--config", str(config), "--out", str(out)])
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
    err = assert_schema_error_writes_nothing("spin-demo", text, tmp_path, capsys)
    assert err.startswith("conecalc: schema error: spin-demo ")


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


def test_coupling_past_the_cap_fails_before_its_node_is_built(monkeypatch):
    # a 32-dimensional base coupled to a 32-dimensional factor: the node
    # would be 1024-dimensional, 8 MB, above a cap lowered to 512
    config = json.loads(STABILITY_TEXT)
    config["spaces"] = {"base": 32, "f1": 32}
    config["operators"] = [
        {"name": "h_star", "space": "base", "entries": (-np.ones((32, 32))).tolist()},
        {"name": "obs", "space": "base", "entries": (-np.ones((32, 32))).tolist()},
        {"name": "one", "space": "base", "kind": "identity"},
        {"name": "flip_env", "space": "f1", "entries": np.ones((32, 32)).tolist()},
    ]
    config["params"]["members"] = config["params"]["members"][1:]  # the coupling alone
    monkeypatch.setattr(numerics, "DIM_CAP", 512)
    tracemalloc.start()
    try:
        report, _ = run_config(config, "0" * 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["status"] == "fail"
    assert report["payload"]["error_type"] == "DimCap"
    assert report["payload"]["reason"] == "Kronecker sum dimension 1024 exceeds cap 512"
    assert peak < 1024 * 1024 * 8


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
    err = assert_schema_error_writes_nothing(task, text, tmp_path, capsys)
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
    err = assert_schema_error_writes_nothing("chain", text, tmp_path, capsys)
    assert err.startswith(f"conecalc: schema error: {message}")


EXPLICIT_TEXT = (CONFIGS / "lattice_explicit.json").read_text()
ROOT_HALF = "0.7071067811865476"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("task, text, message", [
    pytest.param("chain", CHAIN_TEXT.replace(UP_VECTOR, f'"vector": [1e200, {ROOT_HALF}]'),
                 "embedding 'up': appended vector must be normalized", id="append-vector"),
    pytest.param("chain", CHAIN_TEXT.replace('"append_vector"', '"isometry"').replace(
        UP_VECTOR, f'"matrix": [[1e200, 0], [{ROOT_HALF}, 0], [0, {ROOT_HALF}], [0, {ROOT_HALF}]]'),
        "embedding 'up': isometry columns are not orthonormal", id="isometry"),
    pytest.param("lattice", EXPLICIT_TEXT.replace(f"[[{ROOT_HALF}, ", "[[1e200, ", 1),
                 "cone 'Q': generators are not orthonormal", id="explicit-generators"),
])
def test_an_overflowing_unit_check_is_a_refusal(task, text, message, tmp_path, capsys):
    # the norm or Gram product overflows; that is read as a refusal, with no
    # numpy warning on the way
    err = assert_schema_error_writes_nothing(task, text, tmp_path, capsys)
    assert err == f"conecalc: schema error: {message}\n"


@pytest.mark.parametrize("task, text, context", [
    pytest.param("classify", CLASSIFY_TEXT.replace("[[0, 1]", "[[true, 1]"), "operator 'flip'",
                 id="operator-entry"),
    pytest.param("chain", CHAIN_TEXT.replace(UP_VECTOR, f'"vector": [true, {ROOT_HALF}]'),
                 "embedding 'up'", id="append-vector-cell"),
    pytest.param("lattice", EXPLICIT_TEXT.replace(f"[[{ROOT_HALF}, ", "[[true, ", 1), "cone 'Q'",
                 id="explicit-generator-cell"),
])
def test_a_bad_entry_names_its_operator_embedding_or_cone(task, text, context, tmp_path, capsys):
    err = assert_schema_error_writes_nothing(task, text, tmp_path, capsys)
    assert err.startswith(f"conecalc: schema error: {context}: matrix entry must be")


def edited(name: str, edit) -> str:
    """The text of a shipped config after `edit` has changed its parsed form."""
    config = load(name)
    edit(config)
    return json.dumps(config)


def first_member(config: dict) -> dict:
    return config["params"]["members"][0]


@pytest.mark.parametrize("task, text, message", [
    pytest.param("chain", edited("chain_two_level.json", lambda c: c.update(operators=5)),
                 "operators must be a list", id="operators-not-a-list"),
    pytest.param("chain", edited("chain_two_level.json", lambda c: c.update(cones=7)),
                 "cones must be a list", id="cones-not-a-list"),
    pytest.param("chain", edited("chain_two_level.json", lambda c: c.update(embeddings=5)),
                 "embeddings must be a list", id="embeddings-not-a-list"),
    pytest.param("chain", edited("chain_two_level.json",
                                 lambda c: c["operators"][0].update(name=["h0"])),
                 "operator names must be strings", id="operator-name-a-list"),
    pytest.param("chain", edited("chain_two_level.json",
                                 lambda c: c["cones"][0].update(name=["P0"])),
                 "cone names must be strings", id="cone-name-a-list"),
    pytest.param("chain", edited("chain_two_level.json",
                                 lambda c: c["embeddings"][0].update(name=["up"])),
                 "embedding names must be strings", id="embedding-name-a-list"),
    pytest.param("chain", edited("chain_two_level.json",
                                 lambda c: c["params"].update(embeddings=5)),
                 "chain embeddings must be a list", id="chain-embeddings-an-int"),
    pytest.param("chain", edited("chain_two_level.json",
                                 lambda c: c["params"].update(embeddings=None)),
                 "chain embeddings must be a list", id="chain-embeddings-null"),
    pytest.param("chain", edited("chain_two_level.json", lambda c: (
                     c["embeddings"][0].update(name="u"), c["params"].update(embeddings="u"))),
                 "chain embeddings must be a list", id="chain-embeddings-a-one-letter-string"),
    pytest.param("stability", edited("stability_demo.json",
                                     lambda c: first_member(c).update(recipe="tower")),
                 "stability member recipe must be an object", id="recipe-a-string"),
    pytest.param("stability", edited("stability_demo.json",
                                     lambda c: first_member(c).update(id=["x"])),
                 "stability member ids must be strings", id="member-id-a-list"),
    pytest.param("classify", edited("classify_flip.json", lambda c: c["operators"].append(
                     {"name": "flip", "space": "base", "kind": "identity"})),
                 "duplicate operator name 'flip'", id="operator-name-repeated"),
    pytest.param("chain", edited("chain_two_level.json",
                                 lambda c: c["cones"].append(dict(c["cones"][0]))),
                 "duplicate cone name 'P0'", id="cone-name-repeated"),
    pytest.param("chain", edited("chain_two_level.json",
                                 lambda c: c["embeddings"].append(dict(c["embeddings"][0]))),
                 "duplicate embedding name 'up'", id="embedding-name-repeated"),
    pytest.param("stability", edited("stability_demo.json", lambda c: c["params"]["members"][1]
                                     .update(id=first_member(c)["id"])),
                 "duplicate stability member id 'tower-depth-2'", id="member-id-repeated"),
])
def test_malformed_registry_exits_two_without_a_traceback(task, text, message, tmp_path, capsys):
    err = assert_schema_error_writes_nothing(task, text, tmp_path, capsys)
    assert err.startswith(f"conecalc: schema error: {message}")
    assert "Traceback" not in err


SHIPPED = sorted(path.name for path in CONFIGS.glob("*.json"))


@pytest.mark.parametrize("name", SHIPPED)
def test_a_boolean_for_a_number_exits_two_and_writes_nothing(name, tmp_path, capsys):
    task = load(name)["task"]
    text = edited(name, lambda c: c.update(version=True))
    err = assert_schema_error_writes_nothing(task, text, tmp_path, capsys)
    assert err == "conecalc: schema error: config version must be 1\n"
    if "operators" not in load(name):
        return
    text = edited(name, lambda c: c["operators"][0]["entries"][0].__setitem__(0, True))
    err = assert_schema_error_writes_nothing(task, text, tmp_path, capsys)
    assert "matrix entry must be a number or [re, im] pair, got True" in err


def test_a_repeated_key_exits_two_and_writes_nothing(tmp_path, capsys):
    # json keeps the last of a repeated key: this config would run depth 1
    text = (CONFIGS / "richness_depth5.json").read_text()
    text = text.replace('"depth": 5', '"depth": 5, "depth": 1')
    err = assert_schema_error_writes_nothing("richness", text, tmp_path, capsys)
    assert err == "conecalc: schema error: config repeats the key 'depth'\n"


def test_repeated_member_id_is_refused_before_the_base_record_is_built(monkeypatch, tmp_path,
                                                                      capsys):
    from conecalc import stability

    def refuse(*args, **kwargs):
        raise AssertionError("base record built")

    monkeypatch.setattr(stability.StabilityClassRecord, "for_base", refuse)
    text = edited("stability_demo.json",
                  lambda c: c["params"]["members"][1].update(id=first_member(c)["id"]))
    assert_schema_error_writes_nothing("stability", text, tmp_path, capsys)


@pytest.mark.parametrize("member_id", ["a" + "".join(map(chr, range(0x20))) + "b", "a\ud800b"],
                         ids=["control-characters", "lone-surrogate"])
def test_an_echoed_id_reads_back_from_a_valid_report(member_id, tmp_path):
    config = load("stability_demo.json")
    first_member(config)["id"] = member_id
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))  # ASCII: the surrogate travels as \ud800
    assert main(["stability", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    with open(tmp_path / "out" / "report.json", encoding="utf-8") as fh:
        report = json.load(fh)
    assert report["payload"]["members"][0]["id"] == member_id


def one_dimensional_lattice(ell: int) -> dict:
    """lattice_ell3 with its slots replaced by `ell` copies of one 1x1 operator."""
    config = load("lattice_ell3.json")
    config["spaces"]["e"] = 1
    config["operators"].append({"name": "zero", "space": "e", "entries": [[0]]})
    config["params"]["factors"] = [{"operator": "zero"}] * ell
    return config


@pytest.mark.parametrize("ell, error_type", [(13, "DimCap"), (12, "AssertionError")])
def test_lattice_past_the_node_cap_fails_before_the_spec_is_checked(ell, error_type,
                                                                    monkeypatch):
    # every node has the base's dimension 2, so only the 2^ell node count
    # can pass the cap; at 12 slots the cap lets the spec check run
    def refuse(*args, **kwargs):
        raise AssertionError("the spec was checked or a node was built")

    monkeypatch.setattr(lattice, "verify_spec", refuse)
    monkeypatch.setattr(lattice, "_build_node", refuse)
    report, _ = run_config(one_dimensional_lattice(ell), "0" * 64)
    assert report["payload"]["error_type"] == error_type
    if ell == 13:
        assert report["status"] == "fail"
        assert report["payload"]["reason"] == "lattice of 13 slots has 2^13 nodes, over cap 4096"


def resized_classify(dim: int, operator: dict) -> str:
    """classify_flip with its space declared `dim`-dimensional and its
    operator replaced by `operator`."""
    def edit(config):
        config["spaces"]["base"] = dim
        config["operators"][0].clear()
        config["operators"][0].update(operator, name="flip", space="base")
    return edited("classify_flip.json", edit)


@pytest.mark.parametrize("dim, operator", [
    pytest.param(numerics.DIM_CAP + 1, {"entries": [[0, 1], [1, 0]]}, id="one-past-the-cap"),
    pytest.param(10 ** 9, {"kind": "identity"}, id="identity-of-a-billion"),
])
def test_declared_space_past_the_cap_exits_two_before_any_allocation(dim, operator,
                                                                     tmp_path, capsys):
    tracemalloc.start()
    try:
        err = assert_schema_error_writes_nothing(
            "classify", resized_classify(dim, operator), tmp_path, capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err == (f"conecalc: schema error: space 'base' dimension {dim} "
                   f"exceeds cap {numerics.DIM_CAP}\n")
    assert peak < 1_000_000


def test_declared_space_at_the_cap_is_accepted():
    ctx = cli._build_context({"spaces": {"base": numerics.DIM_CAP}})
    assert ctx.space_dim("base") == numerics.DIM_CAP


def test_trotter_past_the_floating_range_fails_without_a_traceback(tmp_path):
    # at n = 2^62 the split product's power overflows: the run says fail,
    # naming n, with no traceback and no LAPACK complaint about a NaN input
    config = load("trotter_pair.json")
    config["params"]["n_values"] = [1, 2 ** 62]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(config))
    result = subprocess.run(
        [sys.executable, "-W", "error", "-m", "conecalc", "trotter", "--config", str(path),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 1, result.stderr
    assert result.stdout == f"fail: trotter -> {tmp_path / 'out' / 'report.json'}\n"
    assert result.stderr == ""
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["status"] == "fail"
    assert report["payload"] == {
        "error_type": "Inconsistent",
        "reason": f"the Trotter approximant at n = {2 ** 62} is not finite"}


def test_trotter_n_past_the_largest_float_is_refused(tmp_path, capsys):
    # 2^1100 has no float, so n is refused before any step is exponentiated
    config = load("trotter_pair.json")
    config["params"]["n_values"] = [1, 2 ** 1100]
    err = assert_schema_error_writes_nothing("trotter", json.dumps(config), tmp_path, capsys)
    assert err == "conecalc: schema error: n_values must not exceed the largest float\n"


EXACT_NOT_FINITE = "the exponential exp(-beta*(sH + tH')) is not finite"


@pytest.mark.parametrize("entries, params, reason", [
    pytest.param({1: 2 ** 63}, {}, EXACT_NOT_FINITE, id="hp-entry-2^63"),
    pytest.param({0: 1e200}, {}, EXACT_NOT_FINITE, id="h-entry-1e200"),
    pytest.param({0: 1e200, 1: -1e200}, {"s": 1.0, "t": 1.0},
                 "the Trotter approximant at n = 1 is not finite",
                 id="entries-that-cancel-in-sH+tH'"),
])
def test_trotter_with_a_non_finite_exponential_fails_with_a_report(entries, params, reason,
                                                                   tmp_path):
    # a huge entry leaves eigenvalues whose rounding error overflows the
    # exponential of sH + tH', or, where the entries cancel there (s = t = 1),
    # of one split-product factor; the run says fail, with no NaN in the
    # report, no traceback and no LAPACK complaint
    config = load("trotter_pair.json")
    for operator, entry in entries.items():
        config["operators"][operator]["entries"][1][1] = entry
    config["params"].update(params)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(config))
    result = subprocess.run(
        [sys.executable, "-W", "error", "-m", "conecalc", "trotter", "--config", str(path),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 1, result.stderr
    assert result.stdout == f"fail: trotter -> {tmp_path / 'out' / 'report.json'}\n"
    assert result.stderr == ""
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["payload"] == {"error_type": "Inconsistent", "reason": reason}


def test_a_report_that_cannot_be_rendered_leaves_no_directory(tmp_path):
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="NaN"):
        emit({"status": "pass", "payload": {"error": math.nan}}, out)
    assert not out.exists()


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
