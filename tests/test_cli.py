import gc
import json
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import lrhive.classify
import lrhive.expansions
from lrhive import sweep
from lrhive.classify import MFVerdict
from lrhive.cli import main
from lrhive.expansions import Expansion
from lrhive.partitions import partitions_in_box, subpartitions
from lrhive.skew import SkewShape
from lrhive.sweep import verify_sweep

GOLDEN = Path(__file__).resolve().parent / "golden"


def record_product_pairs(monkeypatch):
    """Record each pair a product sweep classifies; its expansions are skipped."""
    seen = []

    def recording(mu, nu):
        seen.append((mu, nu))
        return lrhive.classify.stembridge_mf(mu, nu)

    monkeypatch.setattr(sweep, "stembridge_mf", recording)
    monkeypatch.setattr(sweep, "product_expansion", lambda mu, nu, method: Expansion())
    return seen


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLrcoef:
    def test_both_methods(self, capsys):
        code, out, err = run(
            capsys, "lrcoef", "--lambda", "3,2,1", "--mu", "2,1", "--nu", "2,1", "--method", "both"
        )
        assert code == 0
        assert out == "2\n2\n"

    def test_single_method_json(self, capsys):
        code, out, _ = run(
            capsys,
            "lrcoef", "--lambda", "3,2,1", "--mu", "2,1", "--nu", "2,1",
            "--method", "tableau", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["coefficient"] == 2
        assert payload["method"] == "tableau"
        assert payload["query"]["lambda"] == [3, 2, 1]


class TestExpansions:
    def test_skew_json_seven_terms(self, capsys):
        code, out, _ = run(capsys, "skew", "--shape", "4,3,2,1/2,2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["terms"]) == 7
        assert payload["max_multiplicity"] == 2
        assert {"partition": [3, 2, 1], "coeff": 2} in payload["terms"]

    def test_product_text(self, capsys):
        code, out, _ = run(capsys, "product", "--mu", "1", "--nu", "1")
        assert code == 0
        assert out == "2: 1\n1,1: 1\nmax multiplicity: 1\n"

    def test_methods_match(self, capsys):
        outs = []
        for method in ("hive", "tableau"):
            _, out, _ = run(capsys, "skew", "--shape", "3,2,1/2,1", "--method", method)
            outs.append(out)
        assert outs[0] == outs[1]


class TestMF:
    def test_skew_check_paper_example(self, capsys):
        code, out, _ = run(capsys, "mf", "skew", "--shape", "9^2,6^3/5^2,2", "--check")
        assert code == 0
        assert out.startswith("multiplicity-free (")
        assert "R2" in out

    def test_product_not_free_with_witness(self, capsys):
        code, out, _ = run(capsys, "mf", "product", "--mu", "2,1", "--nu", "2,1", "--check")
        assert code == 0
        assert "not multiplicity-free" in out
        assert "witness: 3,2,1 (coefficient 2)" in out

    def test_json_schema(self, capsys):
        code, out, _ = run(
            capsys, "mf", "product", "--mu", "2,2", "--nu", "3,3,1", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["multiplicity_free"] is True
        assert payload["cases"] == ["P2", "P3"]
        assert payload["witness"] is None

    def test_missing_flags(self, capsys):
        code, _, err = run(capsys, "mf", "product", "--shape", "2,1/1")
        assert code == 2
        assert "mu" in err


class TestWitness:
    def test_q1(self, capsys):
        code, out, _ = run(capsys, "witness", "Q1", "--params", "a=2,b=1,c=2,d=1")
        assert code == 0
        assert "lambda: 3,2,1" in out
        assert "count: 2" in out

    def test_lifted_json(self, capsys):
        code, out, _ = run(
            capsys, "witness", "U2(ii)", "--params", "a=5,b=4,c=3,d=2,e=2", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["case"] == "U2ii"
        assert payload["holds"] is True
        assert payload["count"] >= 2

    def test_bad_params_exit_2(self, capsys):
        code, _, err = run(capsys, "witness", "Q1", "--params", "a=1,b=1,c=2,d=1")
        assert code == 2
        assert "requires" in err

    def test_case_is_not_a_parameter(self, capsys):
        code, out, err = run(capsys, "witness", "Q1", "--params", "case=1")
        assert (code, out) == (2, "")
        assert err.startswith("error: Q1 takes parameters a, b, c, d;") and err.count("\n") == 1
        assert "unexpected ['case']" in err

    def test_unknown_case(self, capsys):
        code, _, err = run(capsys, "witness", "Z9", "--params", "a=1")
        assert code == 2


class TestHives:
    def test_count_only(self, capsys):
        code, out, _ = run(capsys, "hives", "--lambda", "3,2,1", "--mu", "2,1", "--nu", "2,1")
        assert code == 0
        assert out.splitlines()[0] == "2"

    def test_dump_text(self, capsys):
        code, out, _ = run(
            capsys, "hives", "--lambda", "3,2,1", "--mu", "2,1", "--nu", "2,1", "--n", "3", "--dump"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "2"
        assert lines[1] == "hive 1:"
        assert lines[2] == "0"
        # base row carries the partial sums ending at |lambda| = 6
        assert lines[5].startswith("6 ")
        assert "hive 2:" in lines

    def test_dump_json(self, capsys):
        code, out, _ = run(
            capsys,
            "hives", "--lambda", "2,1", "--mu", "1", "--nu", "1,1",
            "--n", "2", "--dump", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 1
        assert payload["n"] == 2
        assert payload["hives"] == [[[0], [2, 1], [3, 3, 2]]]

    @pytest.mark.parametrize("fmt, suffix", [("text", "txt"), ("json", "json")])
    def test_dump_bytes(self, capsys, fmt, suffix):
        code, out, err = run(
            capsys,
            "hives", "--lambda", "3,2,1", "--mu", "2,1", "--nu", "2,1", "--dump", "--format", fmt,
        )
        assert (code, err) == (0, "")
        assert out == (GOLDEN / f"hives_321_21_21_dump.{suffix}").read_text()

    def test_side_capped_by_weight_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("HIVE_LR_MAX_WEIGHT", "5")
        argv = ("hives", "--lambda", "1", "--mu", "1", "--nu", "0", "--n")
        assert run(capsys, *argv, "5") == (0, "1\n", "")
        assert run(capsys, *argv, "6") == (2, "", "error: hive side 6 exceeds HIVE_LR_MAX_WEIGHT = 5\n")


class TestVerify:
    def test_trivial_box(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "products", "--box", "1x1")
        assert code == 0
        assert "disagree: 0" in out

    def test_products_2x2_json(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--family", "products", "--box", "2x2", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["disagree"] == 0
        assert payload["agree"] == payload["instances"]

    def test_skews_sampled(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--family", "skews", "--box", "3x3", "--sample", "40", "--seed", "1",
        )
        assert code == 0
        assert "instances: 40" in out

    def test_sweep_function_products(self):
        report = verify_sweep("products", (2, 2))
        assert report.disagree == 0
        assert report.instances == 36  # six partitions in a 2x2 box, ordered pairs

    def test_product_sweep_retains_no_expansions(self):
        # the 2x2 sweep loads every module and builds the plans of sides up to
        # 4, all the 5x2 box (two rows, parts up to 5) needs, so what the 5x2
        # sweep keeps is its expansions; no other test sweeps that box
        verify_sweep("products", (2, 2))
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            verify_sweep("products", (5, 2))
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 200_000, retained

    def test_bad_box(self, capsys):
        code, _, err = run(capsys, "verify", "--family", "products", "--box", "3by3")
        assert code == 2

    def test_negative_box_side(self, capsys):
        code, out, err = run(capsys, "verify", "--family", "skews", "--box=-2x-2")
        assert (code, out) == (2, "")
        assert err == "error: box sides must be non-negative, got -2x-2\n"

    def test_empty_box(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "skews", "--box", "0x3")
        assert code == 0
        assert "instances: 1" in out

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family 'bogus'"):
            verify_sweep("bogus", (2, 2))

    def test_negative_sides_checked_before_weight(self, capsys):
        code, out, err = run(capsys, "verify", "--family", "products", "--box=-7x-7")
        assert (code, out) == (2, "")
        assert err == "error: box sides must be non-negative, got -7x-7\n"

    @pytest.mark.parametrize("box", [(0, 3), (3, 3), (4, 4), (5, 6)])
    def test_skew_instances_are_the_basic_shapes_in_order(self, monkeypatch, box):
        seen = []

        def recording(shape):
            seen.append(shape)
            return lrhive.classify.gty_mf(shape)

        monkeypatch.setattr(sweep, "gty_mf", recording)
        # only the instances and their order are under test, so skip the expansions
        monkeypatch.setattr(sweep, "skew_expansion", lambda shape, method: Expansion())
        verify_sweep("skews", box)
        shapes = (SkewShape(lam, mu) for lam in partitions_in_box(*box) for mu in subpartitions(lam))
        assert seen == [shape for shape in shapes if shape.is_basic()]

    def test_full_product_sweep_runs_every_pair_in_order(self, monkeypatch):
        seen = record_product_pairs(monkeypatch)
        verify_sweep("products", (3, 3))
        parts = partitions_in_box(3, 3)
        assert seen == [(mu, nu) for mu in parts for nu in parts]

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("box", [(3, 3), (4, 4)])
    def test_sampled_product_pairs_are_the_listed_sample(self, monkeypatch, box, seed):
        # 100 of 400 pairs draws from a pool, 100 of 4,900 from a set of picks
        seen = record_product_pairs(monkeypatch)
        verify_sweep("products", box, sample=100, seed=seed)
        parts = partitions_in_box(*box)
        assert seen == random.Random(seed).sample([(mu, nu) for mu in parts for nu in parts], 100)

    def test_sampled_product_sweep_builds_no_pair_list(self, monkeypatch):
        # the 5x8 box, at the weight cap, has 1,656,369 pairs; their list took 106 MB
        seen = record_product_pairs(monkeypatch)
        tracemalloc.start()
        try:
            verify_sweep("products", (5, 8), sample=10, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(seen) == 10
        assert peak < 2_000_000, peak

    @pytest.mark.parametrize("fmt, suffix", [("text", "txt"), ("json", "json")])
    @pytest.mark.parametrize("family, classifier", [("products", "stembridge_mf"), ("skews", "gty_mf")])
    def test_disagreement_records(self, capsys, monkeypatch, family, classifier, fmt, suffix):
        # a classifier that never fires disagrees with every free instance
        monkeypatch.setattr(sweep, classifier, lambda *args: MFVerdict(frozenset()))
        code, out, err = run(capsys, "verify", "--family", family, "--box", "2x2", "--format", fmt)
        assert (code, err) == (1, "")
        assert out == (GOLDEN / f"verify_{family}_2x2_disagree.{suffix}").read_text()


class TestDeterminismAndLimits:
    def test_byte_identical_outputs(self, capsys):
        argv = ["skew", "--shape", "4,3,2,1/2,2", "--format", "json"]
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_weight_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("HIVE_LR_MAX_WEIGHT", "5")
        code, _, err = run(capsys, "lrcoef", "--lambda", "4,3", "--mu", "4", "--nu", "3")
        assert code == 2
        assert "HIVE_LR_MAX_WEIGHT" in err

    def test_long_run_over_cap_is_never_built(self, capsys, monkeypatch):
        monkeypatch.delenv("HIVE_LR_MAX_WEIGHT", raising=False)
        argv = ["lrcoef", "--lambda", "2", "--mu", "1^2000000", "--nu", "1"]
        tracemalloc.start()
        try:
            result = run(capsys, *argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result == (2, "", "error: total weight 2000000 exceeds HIVE_LR_MAX_WEIGHT = 40\n")
        # building the run would take 16 MB for its list alone
        assert peak < 1_000_000

    def test_default_cap_allows_paper_examples(self, capsys):
        code, _, _ = run(capsys, "mf", "skew", "--shape", "9^2,6^3/5^2,2")
        assert code == 0

    def test_bad_partition_text_exit_2(self, capsys):
        code, _, err = run(capsys, "lrcoef", "--lambda", "1,3", "--mu", "2,1", "--nu", "1")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "weight_cap, argv, message",
        [
            ("abc", ["lrcoef", "--lambda", "1", "--mu", "1", "--nu", "0"],
             "HIVE_LR_MAX_WEIGHT must be an integer, got 'abc'"),
            (None, ["witness", "Q1", "--params", "a"], "bad parameter 'a'; expected name=value"),
            (None, ["witness", "Q1", "--params", "a=x"], "parameter 'a' needs an integer value"),
            (None, ["verify", "--family", "products", "--box", "3xa"],
             "bad box '3xa'; sides must be integers"),
            (None, ["mf", "skew"], "mf skew needs --shape"),
            (None, ["witness", "Q9", "--params", "a=1"], "unknown case 'Q9'; expected one of Q1, Q2, Q3"),
            (None, ["hives", "--lambda", "0", "--mu", "0", "--nu", "0", "--n", "-1"],
             "hive side must be non-negative, got -1"),
        ],
    )
    def test_usage_error_line(self, capsys, monkeypatch, weight_cap, argv, message):
        if weight_cap is None:
            monkeypatch.delenv("HIVE_LR_MAX_WEIGHT", raising=False)
        else:
            monkeypatch.setenv("HIVE_LR_MAX_WEIGHT", weight_cap)
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["lrcoef", "--lambda", "2,1"])
        assert exc.value.code == 2


# Forced computational disagreements, each a name in a golden file's "patch".
PATCHES = {
    "tableau-count-3": (lrhive.expansions, "lr_tableau_count", lambda *args: 3),
    "stembridge-says-free": (
        lrhive.classify, "stembridge_mf", lambda *args: MFVerdict(frozenset({"P1"}))
    ),
    "hive-count-1": (lrhive.classify, "lr_coefficient_hive", lambda *args: 1),
}


class TestGolden:
    """Stdout, stderr and exit code of whole commands, pinned byte for byte."""

    @pytest.mark.parametrize("path", sorted(GOLDEN.glob("cli_*.json")), ids=lambda p: p.stem)
    def test_replay(self, capsys, monkeypatch, path):
        case = json.loads(path.read_text())
        monkeypatch.delenv("HIVE_LR_MAX_WEIGHT", raising=False)
        if case["patch"] is not None:
            monkeypatch.setattr(*PATCHES[case["patch"]])
        code, out, err = run(capsys, *case["argv"])
        assert (code, out, err) == (case["exit"], case["stdout"], case["stderr"])


class TestStartup:
    def test_parser_loads_no_library_module(self):
        # `lrhive --help` builds the parser only; the library stays unloaded
        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            f"import sys; sys.path.insert(0, {str(src)!r})\n"
            "import lrhive.cli\n"
            "lrhive.cli.build_parser()\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'lrhive' or m == 'dataclasses'))\n"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "['lrhive', 'lrhive.cli']"
