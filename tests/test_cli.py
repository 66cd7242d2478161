import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import fincomplete as fc
from fincomplete import linalg
from fincomplete.cli import run
from fincomplete.errors import CertificateError
from fincomplete.serialization import dumps, load_model_file, model_to_dict, save_model_file

REGISTRY = os.path.join(os.path.dirname(__file__), "..", "registry")
SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def reg(name: str) -> str:
    return os.path.join(REGISTRY, name)


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def invoke_process(*argv):
    """Run the CLI in a fresh interpreter, where an uncaught exception
    would surface as a traceback on stderr."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "fincomplete.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestExitCodes:
    def test_check_pass_is_zero(self, capsys):
        code, out, _ = invoke(
            capsys,
            "check",
            "--model", reg("ce55.model"),
            "--partition", "C1",
            "--sub", "theta1=2",
            "--property", "complete",
        )
        assert code == 0
        assert "verdict: pass" in out

    def test_check_fail_is_one_with_witness(self, capsys):
        code, out, _ = invoke(
            capsys,
            "check",
            "--model", reg("ce55.model"),
            "--partition", "C1",
            "--property", "sufficient",
        )
        assert code == 1
        assert "witness" in out

    def test_verify_hypothesis_unmet_is_two(self, capsys):
        code, out, _ = invoke(
            capsys,
            "verify", "two-block-grid",
            "--model", reg("ce52.model"),
            "--c1", "sigmaX1",
            "--c2", "sigmaSum",
        )
        assert code == 2
        assert "status: conclusion-fails-with-hypothesis-gap" in out

    def test_verify_verified_is_zero(self, capsys):
        code, out, _ = invoke(
            capsys,
            "verify", "two-block-grid",
            "--model", reg("ce55.model"),
            "--c1", "C1",
            "--c2", "C2",
        )
        assert code == 0
        assert "status: verified" in out

    def test_missing_file_is_three(self, capsys):
        code, _, err = invoke(
            capsys, "check", "--model", "missing.file", "--partition", "x", "--property", "complete"
        )
        assert code == 3
        assert "error:" in err

    def test_unknown_flag_is_three(self, capsys):
        code, _, err = invoke(capsys, "validate", "--model", reg("ce55.model"), "--bogus")
        assert code == 3

    def test_unknown_property_is_three(self, capsys):
        code, _, err = invoke(
            capsys, "check", "--model", reg("ce55.model"), "--partition", "C1", "--property", "nope"
        )
        assert code == 3

    def test_duplicate_submodel_indices_is_three(self):
        code, _, err = invoke_process(
            "check", "--model", reg("ce55.model"), "--partition", "C1",
            "--property", "complete", "--sub", "params=0,0",
        )
        assert code == 3
        assert "Traceback" not in err and "error:" in err

    def test_power_of_zero_is_three(self, tmp_path):
        code, _, err = invoke_process(
            "construct", "power", "--model", reg("ce55.model"), "--n", "0",
            "--out", str(tmp_path / "p.model"),
        )
        assert code == 3
        assert "Traceback" not in err and "error:" in err
        assert not (tmp_path / "p.model").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("truncation-family", "--events", "intervals", "--n", "0"),
            ("unknown-truncation", "--events", "intervals", "--partition", "C1", "--n", "0"),
            ("hom-connected", "--partition", "C1", "--exhaustion", "byAxis2", "--mode", "bogus"),
            ("hom-connected", "--partition", "C1", "--exhaustion", "byAxis2", "--mode", "minimal", "--weak"),
        ],
        ids=["truncation-n0", "unknown-truncation-n0", "bogus-mode", "misplaced-weak"],
    )
    def test_verify_domain_error_is_three(self, tmp_path, argv):
        e = fc.load("CE55")
        doc = model_to_dict(
            e.model,
            partitions=e.partitions,
            exhaustions={"byAxis2": [("1", fc.SubmodelRef.of(0, 2)), ("2", fc.SubmodelRef.of(1, 3))]},
        )
        path = tmp_path / "ce55x.model"
        save_model_file(str(path), doc)
        code, _, err = invoke_process("verify", *argv, "--model", str(path))
        assert code == 3
        assert "Traceback" not in err and "error:" in err

    def test_unknown_search_drop_is_three(self):
        code, _, err = invoke_process(
            "search", "--template", "two_block_grid", "--drop", "bogus", "--budget", "1", "--seed", "1"
        )
        assert code == 3
        assert "Traceback" not in err and "error:" in err

    def test_rational_over_int_digit_limit_is_three(self, tmp_path):
        with open(reg("ce55.model"), encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["prob"][0][0] = "1/" + "3" * 4400
        path = tmp_path / "huge.model"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = invoke_process("validate", "--model", str(path))
        assert code == 3
        assert "Traceback" not in err and "error:" in err


def _corruptions(vec):
    """Ways a kernel routine could go wrong: a perturbed entry, the zero
    vector, no vector, and a vector of the wrong length."""
    bumped = (vec[0] + 1,) + vec[1:]
    return [bumped, tuple(Fraction(0) for _ in vec), None, vec[:-1]]


@pytest.mark.parametrize("which", range(4))
def test_corrupted_witness_is_never_a_fail_verdict(capsys, tmp_path, monkeypatch, which):
    out_path = str(tmp_path / "sq.model")
    assert invoke(capsys, "construct", "power", "--model", reg("ce55.model"), "--n", "2", "--out", out_path)[0] == 0
    argv = ("--json", "check", "--model", out_path, "--partition", "discrete", "--property", "complete")
    code, out, _ = invoke(capsys, *argv)
    assert code == 1 and json.loads(out)["verdict"] == "fail"

    genuine = linalg.first_kernel_vector
    monkeypatch.setattr(
        linalg, "first_kernel_vector", lambda rows, width: _corruptions(genuine(rows, width))[which]
    )
    doc = load_model_file(out_path)
    with pytest.raises(CertificateError):
        fc.is_complete(fc.Partition.discrete(doc.model.num_points), doc.model, fc.SubmodelRef.full(doc.model))
    code, out, err = invoke(capsys, *argv)
    assert code not in (0, 1)
    assert out == ""
    assert "Traceback" not in err and "re-check" in err


class TestCommands:
    def test_validate(self, capsys):
        code, out, _ = invoke(capsys, "validate", "--model", reg("ce53.model"))
        assert code == 0 and "valid-model" in out

    def test_minimal(self, capsys):
        code, out, _ = invoke(
            capsys, "minimal", "--model", reg("ce55.model"), "--sub", "theta1=2"
        )
        assert code == 0
        assert "[0, 0, 1]" in out

    def test_optimal_sigma(self, capsys):
        code, out, _ = invoke(
            capsys, "--json", "optimal-sigma", "--model", reg("ce55.model"), "--sub", "theta1=2"
        )
        assert code == 0
        assert json.loads(out)["partition"] == [0, 0, 1]

    def test_umvue(self, capsys):
        # estimand: the mean of one coordinate (the swapped rows have bias 1-t)
        code, out, _ = invoke(
            capsys,
            "--json",
            "umvue",
            "--model", reg("ce52.model"),
            "--estimand", "1/5,1/4,1/3,4/5,3/4,2/3",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["estimator"] == ["0", "1/2", "1/2", "1"]

    def test_umvue_second_axis_not_estimable(self, capsys):
        # the second grid coordinate itself is not an estimable function
        # of the distribution here: no quadratic in the bias matches t on
        # one branch and 1-t on the other
        code, out, _ = invoke(
            capsys,
            "umvue",
            "--model", reg("ce52.model"),
            "--estimand", "1/5,1/4,1/3,1/5,1/4,1/3",
        )
        assert code == 1
        assert "not unbiasedly estimable" in out

    def test_umvue_inestimable_is_one(self, capsys, tmp_path):
        doc = {
            "points": ["a", "b"],
            "params": ["t0", "t1"],
            "prob": [["1/2", "1/2"], ["1/2", "1/2"]],
        }
        path = tmp_path / "flat.model"
        save_model_file(str(path), doc)
        code, out, _ = invoke(capsys, "umvue", "--model", str(path), "--estimand", "0,1")
        assert code == 1
        assert "not unbiasedly estimable" in out

    def test_rao_blackwell(self, capsys, tmp_path):
        e = fc.load("CE52")
        doc = model_to_dict(
            e.model,
            partitions=e.partitions,
            functions={"x1": fc.RationalFunction(("0", "0", "1", "1"))},
        )
        path = tmp_path / "grid.model"
        save_model_file(str(path), doc)
        code, out, _ = invoke(
            capsys,
            "--json",
            "rao-blackwell",
            "--model", str(path),
            "--partition", "sigmaSum",
            "--function", "x1",
        )
        assert code == 0
        assert json.loads(out)["estimator"] == ["0", "1/2", "1/2", "1"]

    def test_rao_blackwell_insufficient_is_two(self, capsys, tmp_path):
        e = fc.load("CE55")
        doc = model_to_dict(e.model, partitions=e.partitions, functions=e.functions)
        path = tmp_path / "ce55.model"
        save_model_file(str(path), doc)
        code, _, err = invoke(
            capsys,
            "rao-blackwell",
            "--model", str(path),
            "--partition", "C1",
            "--function", "identity",
        )
        assert code == 2
        assert "precondition unmet" in err

    def test_counterexample_replay(self, capsys):
        for rid in fc.REGISTRY_IDS:
            code, out, _ = invoke(capsys, "counterexample", rid)
            assert code == 0
            assert "status: verified" in out

    def test_counterexample_unknown_id(self, capsys):
        code, _, err = invoke(capsys, "counterexample", "CE99")
        assert code == 3

    def test_verify_cks_with_component_files(self, capsys):
        code, out, _ = invoke(
            capsys,
            "verify", "cks",
            "--model", reg("ce53_q.model"),
            "--r-model", reg("ce53_r.model"),
        )
        assert code == 2
        assert "second-family-homogeneous[axis2=0]: fail" in out

    def test_verify_truncation_family_builtin_events(self, capsys, tmp_path):
        doc = {
            "points": ["1", "2", "3", "4"],
            "params": ["u"],
            "prob": [["1/4", "1/4", "1/4", "1/4"]],
        }
        path = tmp_path / "chain.model"
        save_model_file(str(path), doc)
        code, out, _ = invoke(
            capsys,
            "verify", "truncation-family",
            "--model", str(path),
            "--events", "intervals",
            "--n", "2",
        )
        assert code == 0 and "status: verified" in out

    def test_verify_joint_completeness_with_file_exhaustions(self, capsys, tmp_path):
        e = fc.load("CE55")
        doc = model_to_dict(
            e.model,
            partitions=e.partitions,
            exhaustions={
                "byAxis2": [
                    ("1", fc.SubmodelRef.of(0, 2)),
                    ("2", fc.SubmodelRef.of(1, 3)),
                ],
                "byAxis1": [
                    ("1", fc.SubmodelRef.of(0, 1)),
                    ("2", fc.SubmodelRef.of(2, 3)),
                ],
            },
        )
        path = tmp_path / "ce55x.model"
        save_model_file(str(path), doc)
        code, out, _ = invoke(
            capsys,
            "verify", "joint-completeness",
            "--model", str(path),
            "--partition", "C1", "--exhaustion", "byAxis2",
            "--partition", "C2", "--exhaustion", "byAxis1",
        )
        assert code == 0 and "status: verified" in out
        # unpaired flags are an input error
        code, _, _ = invoke(
            capsys,
            "verify", "joint-completeness",
            "--model", str(path),
            "--partition", "C1",
        )
        assert code == 3

    def test_verify_bondesson_from_file(self, capsys, tmp_path):
        e = fc.load("CE52")
        doc = model_to_dict(
            e.model,
            partitions=e.partitions,
            functions={"halfsum": fc.RationalFunction(("0", "1/2", "1/2", "1"))},
            exhaustions={
                "byAxis1": [
                    ("0", fc.SubmodelRef.of(0, 1, 2)),
                    ("1", fc.SubmodelRef.of(3, 4, 5)),
                ]
            },
        )
        path = tmp_path / "grid.model"
        save_model_file(str(path), doc)
        code, out, _ = invoke(
            capsys,
            "verify", "bondesson",
            "--model", str(path),
            "--exhaustion", "byAxis1",
            "--function", "halfsum",
        )
        assert code == 0 and "status: verified" in out

    def test_search_command(self, capsys, tmp_path):
        outdir = tmp_path / "found"
        code, out, _ = invoke(
            capsys,
            "--json",
            "search",
            "--template", "two_block_grid",
            "--drop", "c1-sufficiency",
            "--budget", "2000",
            "--seed", "2024",
            "--out", str(outdir),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["found"] and payload["found"][0]["draws"] >= 1
        files = sorted(os.listdir(outdir))
        assert any(f.endswith(".model") for f in files)
        written = load_model_file(os.path.join(outdir, files[0]))
        assert fc.validate_model(written.model).passed

    def test_construct_round_trip(self, capsys, tmp_path):
        out1 = tmp_path / "powered.model"
        code, _, _ = invoke(
            capsys,
            "construct", "power",
            "--model", reg("ce53_q.model"),
            "--n", "2",
            "--out", str(out1),
        )
        assert code == 0
        doc = load_model_file(str(out1))
        assert doc.model.num_points == 4
        out2 = tmp_path / "trunc.model"
        code, _, _ = invoke(
            capsys,
            "construct", "truncate",
            "--model", reg("ce53_q.model"),
            "--events", "uprays",
            "--n", "2",
            "--out", str(out2),
        )
        assert code == 0
        doc2 = load_model_file(str(out2))
        assert "sigmaEvents" in doc2.partitions


class TestDeterminism:
    def test_byte_identical_output_across_threads(self, capsys):
        outs = []
        for threads in ("1", "4"):
            code, out, err = invoke(
                capsys,
                "--json",
                "--threads", threads,
                "verify", "two-block-grid",
                "--model", reg("ce52.model"),
                "--c1", "sigmaX1",
                "--c2", "sigmaSum",
            )
            assert code == 2 and err == ""
            outs.append(out)
        assert outs[0] == outs[1]

    def test_json_reports_parse_and_sort(self, capsys):
        code, out, _ = invoke(
            capsys,
            "--json",
            "check",
            "--model", reg("ce55.model"),
            "--partition", "C1",
            "--property", "sufficient",
        )
        payload = json.loads(out)
        assert payload["witness"]["point"] == "1"
        assert out == dumps(payload)
