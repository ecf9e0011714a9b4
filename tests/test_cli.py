import inspect
import json
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conecalc import lattice, numerics, spec, stability
from conecalc.cli import emit, main, run_config
from conecalc.errors import SchemaError
from conecalc.jsonio import canonical_dumps, matrix_from_json
from conecalc.spec import read_vector

import bad_configs
import caps

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
            read_vector([1.0, cell])


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

    def test_mu_task(self):
        report, _ = run_config(load("mu_flip.json"), "0" * 64)
        assert report["status"] == "pass"
        assert report["payload"]["mu_snapped"] == 1.0

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

        for module in (spec, lattice):
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


@pytest.mark.parametrize("case", bad_configs.CASES, ids=lambda case: case.id)
def test_a_bad_config_ends_as_its_case_says(case, tmp_path):
    bad_configs.check(case, tmp_path)


BAD_CONFIG = {case.id: case for case in bad_configs.CASES}


def test_spin_sites_past_the_cap_are_refused_before_any_site_list_is_built():
    config = {"version": 1, "task": "spin-demo",
              "params": {"sites": 10 ** 6, "sublattice_a": [1]}}
    tracemalloc.start()
    try:
        with pytest.raises(SchemaError, match=r"^spin-demo: 1000000 sites exceed the 12-site cap$"):
            run_config(config, "0" * 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


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


def test_coupling_past_the_cap_fails_before_its_node_is_built(monkeypatch, decompositions):
    # a 16-dimensional base coupled to a 64-dimensional factor: the node
    # would be 1024-dimensional, 8 MB, above a cap lowered to 512, and the
    # factor, the one 64 x 64 operator, is refused before it is decomposed
    config = json.loads(STABILITY_TEXT)
    config["spaces"] = {"base": 16, "f1": 64}
    config["operators"] = [
        {"name": "h_star", "space": "base", "entries": (-np.ones((16, 16))).tolist()},
        {"name": "obs", "space": "base", "entries": (-np.ones((16, 16))).tolist()},
        {"name": "one", "space": "base", "kind": "identity"},
        {"name": "flip_env", "space": "f1", "entries": np.ones((64, 64)).tolist()},
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
    assert decompositions.shapes and all(shape == (16, 16) for _, shape in decompositions.shapes)


def edited(name: str, edit) -> str:
    """The text of a shipped config after `edit` has changed its parsed form."""
    config = load(name)
    edit(config)
    return json.dumps(config)


def sign_flip_chain(config: dict, cone_in: bool) -> None:
    """chain_two_level.json with a third node: h1 again, on the negated lvl1
    orthant N1, reached through the identity embedding of lvl1.  With
    ``cone_in``, the interior node enters on P1 and leaves on N1."""
    config["cones"].append({"name": "N1", "kind": "explicit", "space": "lvl1",
                            "generators": (-np.eye(4)).tolist()})
    config["embeddings"].append({"name": "same", "kind": "identity", "space": "lvl1"})
    interior = {"hamiltonian": "h1", "cone": "N1", "cone_in": "P1"} if cone_in else \
        {"hamiltonian": "h1", "cone": "P1"}
    config["params"]["nodes"][1] = interior
    config["params"]["nodes"].append({"hamiltonian": "h1", "cone": "N1"})
    config["params"]["embeddings"].append("same")


def test_a_chain_node_has_one_cone(tmp_path):
    # entering a node on P1 and leaving it on -P1 joined two pairs that no
    # link verified; such a config once passed with a telescope residual of 2
    text = edited("chain_two_level.json", lambda c: sign_flip_chain(c, cone_in=True))
    bad_configs.check(bad_configs.Case("sign-flip-cone-in", text, line=(
        "chain node 1: unknown key 'cone_in'; it takes 'hamiltonian', 'cone'")), tmp_path)
    # written with one cone per node, the chain fails where the sign changes
    report, _ = run_config(json.loads(edited("chain_two_level.json",
                                             lambda c: sign_flip_chain(c, cone_in=False))),
                           "0" * 64)
    assert report["status"] == "fail"
    assert report["payload"] == {"error_type": "LinkFailed", "index": 1,
                                 "reason": "link 1: cone inheritance failed"}


def reader_rows() -> dict[str, tuple[str, str]]:
    """Object -> (required keys, optional keys) as the signatures of the
    readers in `spec` give them, written as README "Config format" rows."""
    readers = {"top level": spec._top_level, "tolerances": spec._tolerances}
    for entry, kinds in (("operator", spec._OPERATORS), ("cone", spec._CONES),
                         ("embedding", spec._EMBEDDINGS)):
        readers.update({f"{entry}, kind `{kind}`" if kind else entry: reader
                        for kind, reader in kinds.items()})
    readers.update({f"params, task `{task}`": reader for task, reader in spec._RUNNERS.items()})
    readers.update({"chain node": spec._chain_node, "lattice factor": spec._lattice_factor,
                    "stability member": spec._stability_member})
    readers.update({f"recipe, type `{kind}`": reader for kind, reader in spec._RECIPES.items()})
    rows = {}
    for label, reader in readers.items():
        keys = [p for p in inspect.signature(reader).parameters.values()
                if p.name not in ("ctx", "star")]  # what the reader is handed, not config keys
        required = [f"`{p.name}`" for p in keys if p.default is p.empty]
        optional = [f"`{p.name}`" if p.default is None else f"`{p.name}` = `{json.dumps(p.default)}`"
                    for p in keys if p.default is not p.empty]
        rows[label] = (", ".join(required), ", ".join(optional))
    return rows


def test_the_readme_lists_every_config_object_with_its_readers_keys():
    section = (CONFIGS.parent / "README.md").read_text().split("### Config format")[1]
    table = [line.split("|")[1:4] for line in section.split("\n## ")[0].splitlines()
             if line.startswith("|")][2:]
    assert {label.strip(): (required.strip(), optional.strip())
            for label, required, optional in table} == reader_rows()


def one_dimensional_lattice(ell: int) -> dict:
    """lattice_ell3 with its slots replaced by `ell` copies of one 1x1 operator."""
    config = load("lattice_ell3.json")
    config["spaces"]["e"] = 1
    config["operators"].append({"name": "zero", "space": "e", "entries": [[0]]})
    config["params"]["factors"] = [{"operator": "zero"}] * ell
    return config


def identity_factor_lattice(n: int) -> dict:
    """lattice_ell3 with its slots replaced by one n x n identity."""
    config = load("lattice_ell3.json")
    config["spaces"]["e"] = n
    config["operators"].append({"name": "one", "space": "e", "kind": "identity"})
    config["params"]["factors"] = [{"operator": "one"}]
    return config


def test_lattice_past_the_node_count_cap_is_refused_while_reading(monkeypatch):
    # 13 one-dimensional slots: 2^13 nodes of the base's dimension 2
    def refuse(ctx):
        raise AssertionError("a config past the node count cap was built")

    monkeypatch.setattr(spec.RunContext, "build", refuse)
    with pytest.raises(SchemaError, match=r"^lattice of 13 slots has 2\^13 nodes, over cap 4096$"):
        run_config(one_dimensional_lattice(13), "0" * 64)


@pytest.mark.parametrize("config, cap, error_type, reason", [
    (one_dimensional_lattice(12), 4096, "AssertionError", None),
    (identity_factor_lattice(64), 64, "DimCap", "Kronecker sum dimension 128 exceeds cap 64"),
], ids=["12-AssertionError", "top-dimension-DimCap"])
def test_lattice_past_the_node_cap_fails_before_the_spec_is_checked(config, cap, error_type,
                                                                    reason, monkeypatch):
    # every node of the one-dimensional lattice has the base's dimension 2,
    # so only the 2^ell node count can pass the cap, which the reader
    # refuses past 12 slots; at 12 the cap lets the spec check run.  The
    # identity slot makes a top node of twice the lowered cap and is not
    # ergodic, so a spec checked first would report SpecFailed instead of
    # the cap
    def refuse(*args, **kwargs):
        raise AssertionError("the spec was checked, a slot decomposed or a node built")

    monkeypatch.setattr(numerics, "DIM_CAP", cap)  # the node count's and the top node's
    monkeypatch.setattr(lattice, "verify_spec", refuse)
    monkeypatch.setattr(lattice, "_built_run", refuse)
    monkeypatch.setattr(stability, "_kronecker_slot", refuse)
    report, _ = run_config(config, "0" * 64)
    assert report["payload"]["error_type"] == error_type
    if reason is not None:
        assert report["status"] == "fail"
        assert report["payload"]["reason"] == reason


def test_the_cap_script_passes_its_runs():
    # tests/caps.py, which CI runs, as its own process: the richness tower
    # at depth 11, the 11-slot lattice, the lattice of 12 one-dimensional
    # slots and the 12-site spin demo pass below their bounds, each with its
    # time and peak on one line
    done = subprocess.run([sys.executable, "-W", "error", caps.__file__],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == list(caps.RUNS)
    for line, (_, _, bound) in zip(lines, caps.RUNS.values()):
        assert ": pass, " in line and line.endswith(f" MB (bound {bound:g} MB)")


def test_the_cap_script_reads_a_lattice_run_s_assumptions(tmp_path):
    # the outputs of lattice_ell3 hold; a report whose slot 2 is not read
    # as ergodic, or which passes with one slot too few, does not
    out = tmp_path / "out"
    assert main(["lattice", "--config", str(CONFIGS / "lattice_ell3.json"),
                 "--out", str(out)]) == 0
    assert caps.lattice_outputs(out, 3) == []
    report = json.loads((out / "report.json").read_text())
    report["payload"]["assumptions"]["y_ergodic"][1] = False
    (out / "report.json").write_text(json.dumps(report))
    assert caps.lattice_outputs(out, 3) == [
        "assumptions y_ergodic [True, False, True], not [True, True, True]"]
    report["payload"]["assumptions"]["y_ergodic"][1] = True
    report["payload"]["assumptions"]["y_uniform_eigenvector"].pop()
    (out / "report.json").write_text(json.dumps(report))
    assert caps.lattice_outputs(out, 3) == [
        "assumptions y_uniform_eigenvector [True, True], not [True, True, True]"]


def test_an_identity_operator_keeps_the_array_it_is_built_from(monkeypatch):
    # the identity is made read-only, so the operator does not copy it: a
    # 4096-dimensional identity holds one 128 MB array, not two
    made, eye = [], np.eye
    monkeypatch.setattr(np, "eye", lambda *args, **kwargs: made.append(eye(*args, **kwargs))
                        or made[-1])
    op = spec._identity_operator(spec.RunContext(spaces={"e": 3}), "one", "identity", "e").build()
    assert len(made) == 1 and op.mat is made[0]
    assert not op.mat.flags.writeable and (op.mat == eye(3)).all()


@pytest.mark.parametrize("case_id", ["space-one-past-the-cap", "space-identity-of-a-billion"])
def test_declared_space_past_the_cap_exits_two_before_any_allocation(case_id, tmp_path):
    tracemalloc.start()
    try:
        bad_configs.check(BAD_CONFIG[case_id], tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_declared_space_at_the_cap_is_accepted():
    ctx, _, _ = spec._top_level(1, "classify", spaces={"base": numerics.DIM_CAP})
    assert ctx.space_dim("base") == numerics.DIM_CAP


def test_tensor_cone_at_the_cap_is_accepted():
    ctx, _, _ = spec._top_level(1, "classify", spaces={"a": 64}, cones=[
        {"name": "A", "space": "a"}, {"name": "T", "kind": "tensor", "parts": ["A", "A"]}])
    assert ctx.cone("T").dim == numerics.DIM_CAP


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
