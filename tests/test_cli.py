import contextlib
import copy
import io
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fincomplete as fc
from fincomplete import cli, linalg, verify
from fincomplete.cli import COMMANDS, EVENT_KINDS, POWER_PARTITIONS, PROPERTIES, THEOREMS, run
from fincomplete.errors import CertificateError, InputError
from fincomplete.reports import STATUS_THEOREM_VIOLATED
from fincomplete.search import TEMPLATES
from fincomplete.serialization import dumps, load_model_file, model_to_dict, save_model_file

SRC = os.path.join(os.path.dirname(__file__), "..", "src")
REGISTRY = os.path.join(SRC, "fincomplete", "counterexamples")


ARABIC_INDIC_DIGITS = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669")


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

    @pytest.mark.parametrize(
        "limits", [("--budget", "-5", "--max-found", "1"), ("--budget", "3", "--max-found", "0")]
    )
    def test_search_budget_or_max_found_out_of_range_is_three(self, limits):
        code, out, err = invoke_process("--json", "search", "--template", "cks", "--seed", "1", *limits)
        assert code == 3
        assert out == ""
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

    @pytest.mark.parametrize(
        "spoil",
        [lambda t: t + "\n", lambda t: t + " ", lambda t: t.translate(ARABIC_INDIC_DIGITS)],
        ids=["trailing-newline", "trailing-space", "arabic-indic-digits"],
    )
    def test_rational_with_stray_characters_is_three(self, capsys, tmp_path, spoil):
        with open(reg("ce55.model"), encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["prob"][0][0] = spoil(doc["prob"][0][0])
        path = tmp_path / "spoiled.model"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert invoke(capsys, "validate", "--model", str(path))[0] == 3
        estimand = ",".join([spoil("1/5"), "1/4", "1/3", "4/5", "3/4", "2/3"])
        assert invoke(capsys, "umvue", "--model", reg("ce52.model"), "--estimand", estimand)[0] == 3

    @pytest.mark.parametrize(
        "base, field, value",
        [
            ("ce55.model", "events", {"E": 5}),
            ("ce55.model", "events", {"E": [5]}),
            ("ce55.model", "exhaustions", {"X": 3}),
            ("ce55.model", "exhaustions", {"X": [{"label": "a", "params": 0}]}),
            ("ce55.model", "exhaustions", {"X": [{"label": "a", "params": []}]}),
            ("ce55.model", "exhaustions", {"X": [{"label": "a", "params": [0, 0]}]}),
            ("ce55.model", "partitions", [[0, 1]]),
            ("ce55.model", "functions", [["1", "2"]]),
            ("ce53_q.model", "params", "t0"),
            ("ce55.model", "partitions", {"B": [True, False, True]}),
            ("ce55.model", "exhaustions", {"X": [{"label": "a", "params": [True]}]}),
            ("ce55.model", "events", {"E": [[True, False]]}),
        ],
        ids=[
            "event-list-int", "event-int", "exhaustion-int", "piece-params-int",
            "piece-params-empty", "piece-params-repeated", "partitions-list",
            "functions-list", "params-string", "partition-bool", "piece-params-bool",
            "event-bool",
        ],
    )
    def test_malformed_document_shape_is_three(self, tmp_path, base, field, value):
        with open(reg(base), encoding="utf-8") as fh:
            doc = json.load(fh)
        doc[field] = value
        path = tmp_path / "bad.model"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = invoke_process("validate", "--model", str(path))
        assert code == 3
        assert out == ""
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
        fc.is_complete(fc.Partition.discrete(doc.model.num_points), doc.model)
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

    def test_verify_truncation_family_two_base_rows_is_a_gap(self, capsys, tmp_path):
        doc = {
            "points": ["0", "1", "2"],
            "params": ["a", "b"],
            "prob": [["1/3", "1/3", "1/3"], ["1/2", "1/4", "1/4"]],
        }
        path = tmp_path / "chain.model"
        save_model_file(str(path), doc)
        code, out, _ = invoke(
            capsys, "verify", "truncation-family", "--model", str(path), "--events", "intervals", "--n", "3"
        )
        assert code == 2
        assert "status: conclusion-fails-with-hypothesis-gap" in out
        assert "  - base-single-distribution: fail" in out

    @pytest.mark.parametrize("name", ["trivial", "min", "max", "min-max", "optimal"])
    def test_verify_unknown_truncation_builtin_partitions(self, capsys, tmp_path, name):
        doc = {"points": ["1", "2", "3"], "params": ["u"], "prob": [["1/3", "1/6", "1/2"]]}
        path = tmp_path / "chain.model"
        save_model_file(str(path), doc)
        code, out, _ = invoke(
            capsys,
            "--json", "verify", "unknown-truncation",
            "--model", str(path), "--events", "intervals", "--n", "2", "--partition", name,
        )
        report = json.loads(out)
        # one distribution: only the trivial partition is complete sufficient,
        # and it is the optimal one
        holds = name in ("trivial", "optimal")
        assert (code, report["status"]) == ((0, "verified") if holds else (2, "hypothesis-unmet"))
        assert [h["verdict"] for h in report["hypotheses"]] == ["pass", "pass" if holds else "fail"]

    @pytest.mark.parametrize(
        "prob, status",
        [
            # three coin biases: the optimal partition of two tosses is the sum
            ([["4/5", "1/5"], ["3/4", "1/4"], ["2/3", "1/3"]], "verified"),
            # overlapping uniforms: the optimal partition is complete but not sufficient
            ([["1/2", "1/2", "0"], ["0", "1/2", "1/2"]], "conclusion-fails-with-hypothesis-gap"),
        ],
        ids=["sufficient", "not-sufficient"],
    )
    def test_verify_unknown_truncation_optimal_partition(self, capsys, tmp_path, prob, status):
        doc = {"points": [str(x) for x in range(len(prob[0]))], "params": [f"t{i}" for i in range(len(prob))], "prob": prob}
        path = tmp_path / "base.model"
        save_model_file(str(path), doc)
        code, out, _ = invoke(
            capsys,
            "--json", "verify", "unknown-truncation",
            "--model", str(path), "--events", "uprays", "--n", "2", "--partition", "optimal",
        )
        report = json.loads(out)
        assert (code, report["status"]) == (0 if status == "verified" else 2, status)
        assert [h["verdict"] for h in report["hypotheses"]] == ["pass", "pass" if status == "verified" else "fail"]

    def test_verify_unknown_truncation_document_partition_wins(self, capsys, tmp_path):
        # a document partition of the power space named like a built-in
        doc = {
            "points": ["1", "2"],
            "params": ["u"],
            "prob": [["1/3", "2/3"]],
            "partitions": {"min": [0, 0]},
        }
        path = tmp_path / "coin.model"
        save_model_file(str(path), doc)
        argv = ("verify", "unknown-truncation", "--model", str(path), "--events", "uprays", "--partition", "min")
        code, out, _ = invoke(capsys, *argv, "--n", "1")
        assert code == 0 and "status: verified" in out
        code, out, _ = invoke(capsys, *argv, "--n", "2")
        assert code == 2 and "base-complete-sufficient: fail" in out

    def test_verify_unknown_truncation_bogus_partition_is_three(self, tmp_path):
        doc = {"points": ["1", "2", "3"], "params": ["u"], "prob": [["1/3", "1/6", "1/2"]]}
        path = tmp_path / "chain.model"
        save_model_file(str(path), doc)
        code, out, err = invoke_process(
            "verify", "unknown-truncation",
            "--model", str(path), "--events", "intervals", "--n", "2", "--partition", "bogus",
        )
        assert code == 3 and out == ""
        assert "Traceback" not in err and "error:" in err

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


# Every partition flag, with NAME for the partition; "all" is an
# exhaustion added to the model file.
PARTITION_FLAG_ARGV = {
    "check": ("ce55.model", ["check", "--property", "sufficient", "--partition", "NAME"]),
    "check-partition2": ("ce55.model", ["check", "--property", "independent", "--partition", "C1", "--partition2", "NAME"]),
    "rao-blackwell": ("ce55.model", ["rao-blackwell", "--partition", "NAME", "--function", "identity"]),
    "verify-partition": ("ce55.model", ["verify", "joint-completeness", "--partition", "NAME", "--exhaustion", "all"]),
    "verify-smith": ("ce55.model", ["verify", "smith", "--mode", "a", "--partition", "NAME", "--function", "identity"]),
    "verify-c1": ("ce52.model", ["verify", "two-block-grid", "--c1", "NAME", "--c2", "sigmaSum"]),
    "verify-c2": ("ce54.model", ["verify", "cks-rewrite", "--c1", "sigmaX1", "--c2", "NAME"]),
    "unknown-truncation": ("ce55.model", ["verify", "unknown-truncation", "--events", "uprays", "--partition", "NAME"]),
}


@pytest.mark.parametrize("builtin", ["discrete", "trivial"])
@pytest.mark.parametrize("flag", PARTITION_FLAG_ARGV)
def test_every_partition_flag_resolves_builtin_names_after_the_file(capsys, tmp_path, flag, builtin):
    """A built-in name gives the bytes of the same partition named in the
    file, and a file partition named like a built-in wins over it."""
    name, argv = PARTITION_FLAG_ARGV[flag]
    doc = json.loads(REGISTRY_DOCS[name])
    doc["exhaustions"] = {"all": [{"label": "all", "params": list(range(len(doc["params"])))}]}
    n = len(doc["points"])
    discrete, trivial = list(range(n)), [0] * n
    parts = doc.setdefault("partitions", {})
    parts.pop("discrete", None)
    parts["named"] = discrete if builtin == "discrete" else trivial
    path = tmp_path / "m.model"

    def outcome(partition_name):
        path.write_text(json.dumps(doc), encoding="utf-8")
        return invoke(capsys, "--json", *[partition_name if a == "NAME" else a for a in argv], "--model", str(path))

    by_builtin = outcome(builtin)
    assert by_builtin[0] != 3
    assert by_builtin == outcome("named")
    # the file's partition of a built-in's name is the other built-in
    other = "trivial" if builtin == "discrete" else "discrete"
    parts[builtin] = trivial if builtin == "discrete" else discrete
    assert outcome(builtin) == outcome(other)


def test_partition_flags_only_yield_partitions_of_the_right_size(capsys, tmp_path):
    """The partition checks reject a partition of the wrong length; the CLI
    never hands them one: a model file cannot hold one, and a document
    partition of another size yields to the built-in or is refused."""
    doc = json.loads(REGISTRY_DOCS["ce55.model"])
    doc["partitions"] = {"short": [0, 1]}
    path = tmp_path / "short.model"
    path.write_text(json.dumps(doc), encoding="utf-8")
    argv = ("check", "--model", str(path), "--property", "independent", "--partition", "short", "--partition2", "trivial")
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (3, "") and "partition 'short'" in err
    parsed = load_model_file(reg("ce55.model"))
    parsed.partitions.update(short=fc.Partition((0, 1)), discrete=fc.Partition((0, 1, 2, 3)))
    assert cli._partition(parsed, "discrete") == fc.Partition.discrete(3)
    with pytest.raises(InputError):
        cli._partition(parsed, "short")


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


# --- seeded exit-code fuzz: mutated registry documents and argv ---

REGISTRY_DOCS = {}
for _name in sorted(n for n in os.listdir(REGISTRY) if n.endswith(".model")):
    with open(reg(_name), encoding="utf-8") as _fh:
        REGISTRY_DOCS[_name] = _fh.read()

JUNK = st.sampled_from((
    None, 0, 1, -1, 2.5, True, "", "x", "0", "1", "1/2", "-1/2", "1/0", "0.5",
    [], [0], ["1"], [[0]], {}, {"a": [0]}, {"label": "a", "params": [0]},
)).map(copy.deepcopy)
MASSES = st.sampled_from(("0", "1", "1/2", "-1/2", "2/3", "1/0", "0.5"))
SUBS = ("all", "all", "params=0", "params=1,0", "theta1=1", "theta2=2", "params=0,0", "params=9", "bogus")
# the documents with named partitions and functions, for commands that name them
ATTACHED_DOCS = tuple(name for name in sorted(REGISTRY_DOCS) if "functions" in json.loads(REGISTRY_DOCS[name]))
TRUNCATION_THEOREMS = ("truncation-family", "unknown-truncation")
ARGV_JUNK = ("--bogus", "", "--sub", "--model", "check", "--partition")
# every template's droppable families, so most drops are foreign to the template
DROPS = (
    verify.JOINT_COMPLETENESS_FAMILIES + verify.TWO_BLOCK_GRID_FAMILIES + verify.CKS_FAMILIES
)


def _exhaustion_pieces(draw, k: int) -> list:
    """Pieces over k parameter indices, each index in one piece; sometimes
    a piece is left out, so that the rest no longer cover the model."""
    piece_of = [draw(st.integers(min_value=0, max_value=2)) for _ in range(k)]
    pieces = [
        {"label": str(g), "params": [i for i in range(k) if piece_of[i] == g]} for g in sorted(set(piece_of))
    ]
    if len(pieces) > 1 and draw(st.sampled_from((False, False, False, True))):
        pieces.pop()
    return pieces


def _estimand(draw, doc: dict) -> str:
    """One value per parameter: the means of a drawn function, so an
    estimable estimand, or drawn masses; sometimes one value too many or
    too few."""
    rows = [[Fraction(p) for p in row] for row in doc["prob"]]
    if draw(st.booleans()):
        f = [draw(st.integers(min_value=-1, max_value=2)) for _ in rows[0]]
        values = [str(sum(p * v for p, v in zip(row, f))) for row in rows]
    else:
        values = [draw(MASSES) for _ in rows]
    drift = draw(st.sampled_from((0, 0, 0, 1, -1)))
    if drift > 0:
        values.append(draw(MASSES))
    elif drift < 0 and len(values) > 1:
        values.pop()
    return ",".join(values)


def _named(doc: dict, key: str, builtins: tuple[str, ...] = ()):
    """A name of one of the document's attachments under key, a built-in
    name, or now and then a bogus one."""
    names = sorted(doc.get(key, {}))
    return st.sampled_from((*names, *names, *names, *builtins, "bogus"))


def _verify_flags(draw, theorem: str, doc: dict) -> list[str]:
    """Flags for one verifier, with names drawn from the document's
    attachments, the built-in ones and a bogus one."""
    partitions = _named(doc, "partitions", ("discrete", "trivial"))
    functions, exhaustions = (_named(doc, key) for key in ("functions", "exhaustions"))
    if theorem in ("joint-completeness", "hom-connected"):
        flags = []
        for _ in range(draw(st.integers(min_value=1, max_value=2))):
            flags += ["--partition", draw(partitions), "--exhaustion", draw(exhaustions)]
        if draw(st.sampled_from((False, False, False, True))):
            flags = flags[:-2]  # an unpaired --partition, or none at all
        if theorem == "hom-connected":
            flags += ["--mode", draw(st.sampled_from(("sufficient", "minimal", "complete", "bogus")))]
            flags += ["--weak"] if draw(st.booleans()) else []
        return flags
    if theorem in ("two-block-grid", "cks-rewrite"):
        return ["--c1", draw(partitions), "--c2", draw(partitions)]
    if theorem == "cks":
        return ["--r-model", draw(st.sampled_from(("MODEL", *map(reg, sorted(REGISTRY_DOCS)))))]
    if theorem == "smith":
        return ["--mode", draw(st.sampled_from(("a", "b", "bogus"))), "--partition", draw(partitions), "--function", draw(functions)]
    if theorem == "bondesson":
        return ["--exhaustion", draw(exhaustions), "--function", draw(functions)]
    flags = ["--events", draw(st.sampled_from((*EVENT_KINDS, "bogus")))]
    flags += ["--n", str(draw(st.sampled_from((1, 2, 3, 0, -1))))]
    if draw(st.sampled_from((True, True, True, False))):
        names = (*POWER_PARTITIONS, *sorted(doc.get("partitions", {})), "discrete", "bogus")
        flags += ["--partition", draw(st.sampled_from(names))]
    return flags


def _construct_flags(draw, doc: dict) -> list[str]:
    kind = draw(st.sampled_from(("product", "power", "weight", "truncate", "bogus")))
    flags = [kind, "--model", "MODEL", "--out", "OUT"]
    if kind == "product":
        flags += ["--model2", draw(st.sampled_from(("MODEL", reg("ce53_q.model"))))]
    elif kind in ("power", "truncate"):
        flags += ["--n", str(draw(st.sampled_from((1, 2, 3, 0))))]
    if kind == "weight":
        flags += ["--function", draw(_named(doc, "functions"))]
    elif kind == "truncate":
        flags += ["--events", draw(st.sampled_from((*EVENT_KINDS, "bogus")))]
    return flags


@st.composite
def fuzz_cases(draw):
    """A registry document after zero to three mutations, each at a node
    reached by a random descent: dropped, retyped (a string, such as a
    mass, to another rational string or junk), or (for a list such as a
    prob row or a partition) lengthened or shortened; and the argv of one
    command of the CLI's table on it, sometimes with a token dropped or a
    junk token added.  A `verify` runs one of the nine verifiers, on a
    document given an exhaustion, with flags that name the document's
    attachments, built-in ones or bogus ones; a `search` ignores the
    document and has a valid, foreign or bogus template and drop and a
    budget and max-found around their lower limits.  The model path in
    the argv is the placeholder MODEL, and a `construct` writes to the
    placeholder OUT."""
    command = draw(st.sampled_from(tuple(COMMANDS)))
    theorem = draw(st.sampled_from(THEOREMS)) if command == "verify" else None
    names_attachments = command == "rao-blackwell" or theorem not in (None, "cks", *TRUNCATION_THEOREMS)
    name = draw(st.sampled_from(ATTACHED_DOCS if names_attachments else sorted(REGISTRY_DOCS)))
    doc = json.loads(REGISTRY_DOCS[name])
    if command == "umvue":
        estimand = _estimand(draw, doc)
    if command == "verify":
        doc["exhaustions"] = {"split": _exhaustion_pieces(draw, len(doc["params"]))}
        flags = _verify_flags(draw, theorem, doc)
    partitions = sorted(doc.get("partitions", {}))
    functions = _named(doc, "functions")
    # a verify mostly runs on an intact document, so it gets past loading
    mutations = (0, 0, 0, 1) if command == "verify" else (0, 0, 1, 1, 2, 3)
    for _ in range(draw(st.sampled_from(mutations))):
        parent, key = None, None
        node = doc
        while isinstance(node, (dict, list)) and node and (parent is None or draw(st.booleans())):
            keys = sorted(node) if isinstance(node, dict) else range(len(node))
            parent, key = node, draw(st.sampled_from(keys))
            node = node[key]
        if parent is None:
            doc = draw(JUNK)
            break
        op = draw(st.sampled_from(("drop", "retype", "grow", "shrink")))
        if op == "drop":
            del parent[key]
        elif op == "grow" and isinstance(node, list):
            node.append(copy.deepcopy(node[-1]) if node and draw(st.booleans()) else draw(JUNK))
        elif op == "shrink" and isinstance(node, list) and node:
            node.pop()
        else:
            parent[key] = draw(MASSES if isinstance(node, str) else JUNK)

    argv = ["--json"] if draw(st.booleans()) else []
    if command == "verify":
        argv += [command, theorem, "--model", "MODEL", *flags]
    elif command == "search":
        argv += [command, "--template", draw(st.sampled_from(TEMPLATES + ("bogus",)))]
        argv += ["--seed", str(draw(st.integers(min_value=0, max_value=9)))]
        argv += ["--budget", str(draw(st.integers(min_value=-2, max_value=20)))]
        if draw(st.booleans()):
            argv += ["--drop", draw(st.sampled_from(DROPS + ("bogus",)))]
        if draw(st.booleans()):
            argv += ["--max-found", str(draw(st.integers(min_value=-1, max_value=3)))]
    elif command == "counterexample":
        argv += [command, draw(st.sampled_from((*fc.REGISTRY_IDS, "bogus")))]
    elif command == "construct":
        argv += [command, *_construct_flags(draw, doc)]
    else:
        argv += [command, "--model", "MODEL"]
    if command in ("check", "minimal", "optimal-sigma", "umvue", "rao-blackwell") and draw(st.booleans()):
        argv += ["--sub", draw(st.sampled_from(SUBS))]
    names = st.sampled_from(("discrete", "trivial", "nope", *partitions, *partitions))
    if command == "check":
        prop = draw(st.sampled_from(PROPERTIES + ("bogus",)))
        argv += ["--property", prop]
        argv += ["--partition", draw(names)]
        if prop in ("independent", "basu") or draw(st.booleans()):
            argv += ["--partition2", draw(names)]
    elif command == "umvue":
        argv += ["--estimand", estimand]
    elif command == "rao-blackwell":
        argv += ["--partition", draw(names), "--function", draw(functions)]
    if draw(st.sampled_from((False, False, False, True))):
        at = draw(st.integers(min_value=0, max_value=len(argv) - 1))
        if draw(st.booleans()):
            del argv[at]
        else:
            argv.insert(at, draw(st.sampled_from(ARGV_JUNK)))
    return doc, argv


@given(fuzz_cases())
@settings(max_examples=800, deadline=None, derandomize=True)
def test_fuzzed_documents_and_argv_map_to_exit_codes(tmp_path_factory, case):
    doc, argv = case
    base = tmp_path_factory.getbasetemp()
    path = str(base / "fuzz.model")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    argv = [{"MODEL": path, "OUT": str(base / "fuzz-out.model")}.get(a, a) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2, 3)
    assert STATUS_THEOREM_VIOLATED not in out.getvalue()
    if code == 1 and argv[0] == "--json":
        payload = json.loads(out.getvalue())
        # a failed check names a witness; an inestimable estimand has no estimator
        if "estimator" in payload:
            assert payload["estimator"] is None
        else:
            assert payload["witness"] is not None


# --- the per-command parser against the full parser it replaced ---


def _build_parser() -> cli._Parser:
    """The parser that the CLI built on every call before it parsed only
    the invoked command, with all ten subparsers: the oracle for
    ``cli._parse``."""
    parser = cli._Parser(prog="fincomplete", description=cli.__doc__)
    parser.add_argument("--json", action="store_true", help="emit structured JSON reports")
    parser.add_argument("--threads", type=int, default=1, help="accepted; output never depends on it")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check model file invariants")
    p.add_argument("--model", required=True)

    p = sub.add_parser("check", help="decide a structural property")
    p.add_argument("--model", required=True)
    p.add_argument("--property", required=True, choices=PROPERTIES)
    p.add_argument("--partition")
    p.add_argument("--partition2")
    p.add_argument("--sub", default="all")

    p = sub.add_parser("minimal", help="minimal sufficient partition")
    p.add_argument("--model", required=True)
    p.add_argument("--sub", default="all")

    p = sub.add_parser("optimal-sigma", help="the optimal partition")
    p.add_argument("--model", required=True)
    p.add_argument("--sub", default="all")

    p = sub.add_parser("umvue", help="optimal unbiased estimator of an estimand")
    p.add_argument("--model", required=True)
    p.add_argument("--sub", default="all")
    p.add_argument("--estimand", required=True, help="comma-separated rationals, one per parameter")

    p = sub.add_parser("rao-blackwell", help="condition an estimator on a sufficient partition")
    p.add_argument("--model", required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--function", required=True)
    p.add_argument("--sub", default="all")

    p = sub.add_parser("verify", help="run a theorem verifier")
    p.add_argument("theorem", choices=THEOREMS)
    p.add_argument("--model", required=True)
    p.add_argument("--r-model", help="second-family model file (cks)")
    p.add_argument("--c1")
    p.add_argument("--c2")
    p.add_argument("--partition", action="append", default=[], help="unknown-truncation also takes " + "|".join(POWER_PARTITIONS))
    p.add_argument("--exhaustion", action="append", default=[])
    p.add_argument("--function")
    p.add_argument("--events", help="named event list, or intervals/uprays/downrays")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--mode", default="complete", help="hom-connected: sufficient|minimal|complete; smith: a|b")
    p.add_argument("--weak", action="store_true")

    p = sub.add_parser("counterexample", help="replay a registry entry")
    p.add_argument("id", help="|".join(fc.REGISTRY_IDS))

    p = sub.add_parser("search", help="hunt for hypothesis-dropping violations")
    p.add_argument("--template", required=True, choices=TEMPLATES)
    p.add_argument("--drop", default=None)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-found", type=int, default=1)
    p.add_argument("--out", help="directory for found-instance model files")

    p = sub.add_parser("construct", help="build a derived model file")
    p.add_argument("kind", choices=("product", "power", "weight", "truncate"))
    p.add_argument("--model", required=True)
    p.add_argument("--model2")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--function")
    p.add_argument("--events")
    p.add_argument("--out", required=True)
    return parser


def _parse_outcome(parse, argv):
    """The exit code of a parse (3 for a usage error, the code of a help
    exit) and, where it succeeds, the namespace's fields."""
    try:
        return 0, vars(parse(argv))
    except InputError:
        return 3, None
    except SystemExit as e:
        return e.code, None


def _assert_parsers_agree(argv):
    old = _parse_outcome(lambda a: _build_parser().parse_args(a), argv)
    assert _parse_outcome(lambda a: cli._parse(a)[1], argv) == old


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["--json"],
        ["bogus", "--model", "m"],
        ["--threads", "x", "validate", "--model", "m"],
        ["--threads", "2", "--json", "validate", "--model", "m"],
        ["check", "--json", "--model", "m", "--property", "complete"],
        ["validate", "--model", "m", "--threads", "2"],
        ["check", "--mod", "m", "--prop", "sufficient", "--partition", "C1"],
        ["--js", "--thr", "3", "minimal", "--model=m", "--sub", "all"],
        ["check", "--model", "m"],
        ["umvue", "--model", "m"],
        ["verify", "--model", "m"],
        ["counterexample"],
        ["search", "--template", "cks", "--budget", "-2", "--seed", "1"],
        ["verify", "smith", "--model", "m", "--partition", "a", "--partition", "b", "--mode", "a", "--weak"],
        ["construct", "power", "--model", "m", "--out", "o", "--n", "-1"],
        ["counterexample", "CE55", "extra"],
        ["validate", "--", "--model", "m"],
        ["--", "validate", "--model", "m"],
        ["", "validate", "--model", "m"],
        ["--model", "validate", "--model", "m"],
        ["-h"],
        ["verify", "-h"],
    ],
    ids=lambda argv: " ".join(argv) or "no-args",
)
def test_parser_matches_full_parser(capsys, argv):
    _assert_parsers_agree(argv)


@given(fuzz_cases())
@settings(max_examples=800, deadline=None, derandomize=True)
def test_parser_matches_full_parser_on_fuzzed_argv(case):
    _assert_parsers_agree(case[1])


GUARD_ARGV = {
    "validate": ["validate", "--model", reg("ce55.model")],
    "check": ["check", "--model", reg("ce55.model"), "--partition", "C1", "--property", "complete"],
    "minimal": ["minimal", "--model", reg("ce55.model")],
    "optimal-sigma": ["optimal-sigma", "--model", reg("ce55.model")],
    "umvue": ["umvue", "--model", reg("ce52.model"), "--estimand", "1/5,1/4,1/3,4/5,3/4,2/3"],
    "rao-blackwell": ["rao-blackwell", "--model", reg("ce55.model"), "--partition", "discrete", "--function", "identity"],
    "verify": ["verify", "two-block-grid", "--model", reg("ce52.model"), "--c1", "sigmaX1", "--c2", "sigmaSum"],
    "counterexample": ["counterexample", "CE53"],
    "search": ["search", "--template", "cks", "--budget", "1", "--seed", "1"],
    "construct": ["construct", "power", "--model", reg("ce55.model"), "--out", "OUT"],
}


@pytest.mark.parametrize("command", COMMANDS)
def test_one_call_builds_two_parsers(capsys, monkeypatch, tmp_path, command):
    built = []

    class CountingParser(cli._Parser):
        def __init__(self, *args, **kwargs):
            built.append(kwargs["prog"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "_Parser", CountingParser)
    argv = [str(tmp_path / "out.model") if a == "OUT" else a for a in GUARD_ARGV[command]]
    assert run(argv) in (0, 1, 2)
    assert built == ["fincomplete", f"fincomplete {command}"]


README = os.path.join(os.path.dirname(__file__), "..", "README.md")
# names of files the README's examples invent rather than ship
README_PLACEHOLDERS = ("mymodel.model", "chain.model", "coin.model")


def readme_cli_commands() -> list[list[str]]:
    """The `fincomplete ...` lines of the sh block in README's CLI section,
    with backslash continuations joined."""
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("\n```", 1)[0]
    return [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("fincomplete ")]


def test_readme_cli_examples_run(capsys, monkeypatch):
    monkeypatch.chdir(os.path.dirname(README))
    ran = []
    for words in readme_cli_commands():
        argv = words[1:]
        if argv[0] == "search" or any(name in README_PLACEHOLDERS for name in argv):
            continue
        code = run(argv)
        capsys.readouterr()
        assert code in (0, 1, 2), argv
        ran.append(argv[0])
    assert "counterexample" in ran and "verify" in ran
