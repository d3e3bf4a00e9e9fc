"""Command-line interface: outputs, artifacts, exit codes, determinism."""

import hashlib
import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from regsing import walk_census
from regsing.cli import main


def run_cli(argv, env_dir=None, monkeypatch=None):
    if monkeypatch is not None:
        if env_dir is None:
            monkeypatch.delenv("REGSING_OUT_DIR", raising=False)
        else:
            monkeypatch.setenv("REGSING_OUT_DIR", str(env_dir))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_exact_prints_key_sum(monkeypatch):
    code, out, _ = run_cli(["exact", "--n", "3", "--d", "3", "--p", "2"], monkeypatch=monkeypatch)
    assert code == 0
    obj = json.loads(out)
    assert obj["key_sum"] == "27/28"
    assert obj["total_mass_ok"] and obj["parity_ok"]


def test_oracle_reports_equality(monkeypatch):
    code, out, _ = run_cli(["oracle", "--n", "2", "--d", "3", "--p", "2"], monkeypatch=monkeypatch)
    assert code == 0
    obj = json.loads(out)
    assert obj["all_equal"] is True
    zero_type = [r for r in obj["types"] if r["type"] == [2, 0]][0]
    assert zero_type["walk_identity"] == 720 == zero_type["brute_force"]


def test_oracle_guard_exit_code(monkeypatch):
    code, _, err = run_cli(["oracle", "--n", "5", "--d", "3", "--p", "2"], monkeypatch=monkeypatch)
    assert code == 3
    assert "refused" in err


def test_bad_coprimality_exit_code(monkeypatch):
    code, _, err = run_cli(["exact", "--n", "3", "--d", "3", "--p", "3"], monkeypatch=monkeypatch)
    assert code == 2
    assert "gcd" in err


def test_usage_error_exit_code():
    with redirect_stderr(io.StringIO()):
        with pytest.raises(SystemExit) as exc:
            main(["exact", "--n", "3"])  # missing required flags
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["nonsense"])
        assert exc.value.code == 2


def test_rate_requires_density_or_resolution(monkeypatch):
    code, _, err = run_cli(["rate", "--d", "3", "--p", "2"], monkeypatch=monkeypatch)
    assert code == 2
    assert "--density" in err


def test_sample_artifact_deterministic(tmp_path, monkeypatch):
    args = ["sample", "--n", "6", "--d", "3", "--seed", "9", "--out", str(tmp_path / "s.json")]
    code1, out1, _ = run_cli(args, monkeypatch=monkeypatch)
    blob1 = (tmp_path / "s.json").read_bytes()
    code2, out2, _ = run_cli(args, monkeypatch=monkeypatch)
    blob2 = (tmp_path / "s.json").read_bytes()
    assert code1 == code2 == 0
    assert out1 == out2
    assert blob1 == blob2
    obj = json.loads(out1)
    a = obj["adjacency"]
    assert all(sum(row) == 3 for row in a)
    assert all(sum(col) == 3 for col in zip(*a))


def test_sample_csv_format(monkeypatch):
    code, out, _ = run_cli(
        ["sample", "--n", "4", "--d", "3", "--seed", "1", "--format", "csv"],
        monkeypatch=monkeypatch,
    )
    assert code == 0
    rows = [r.split(",") for r in out.strip().split("\n")]
    assert len(rows) == 4 and all(len(r) == 4 for r in rows)


def test_lclt_csv_and_json(tmp_path, monkeypatch):
    code, out, _ = run_cli(
        ["lclt", "--n", "16", "--d", "3", "--p", "2", "--format", "csv"],
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert out.splitlines()[0] == "type,exact,gaussian,rel_error"
    code, out, _ = run_cli(
        ["lclt", "--n", "16", "--d", "3", "--p", "2", "--b-threshold", "0.5"],
        monkeypatch=monkeypatch,
    )
    obj = json.loads(out)
    assert obj["kind"] == "lclt" and obj["b"] == 0.5
    assert obj["max_rel_error"] > 0 and len(obj["rows"]) > 0


def test_rate_certificate_and_scan(monkeypatch):
    code, out, _ = run_cli(
        ["rate", "--d", "3", "--p", "2", "--density", "0.75,0.25"], monkeypatch=monkeypatch
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "rate" and obj["converged"]
    assert obj["rate"] < 0
    assert obj["amgm_sum"] < 1
    code, out, _ = run_cli(
        ["rate", "--d", "3", "--p", "2", "--resolution", "25"], monkeypatch=monkeypatch
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "rate_scan" and obj["all_negative"]


def test_rate_boundary_density_parsed_exactly(monkeypatch):
    # 0.01,0.48,0.51 lies on a facet of the atom cone; its nearest floats do not.
    code, out, _ = run_cli(
        ["rate", "--d", "4", "--p", "3", "--density", "0.01,0.48,0.51"], monkeypatch=monkeypatch
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["feasible"] and obj["converged"]
    assert obj["rate"] == -0.2818028704245985
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "da50d3c47e5e6108c7cb9abc89c4611e7dec917f74470af4450b8eaca2dd5c6e"
    )
    code, _, err = run_cli(
        ["rate", "--d", "3", "--p", "2", "--density", "1/2,1/2"], monkeypatch=monkeypatch
    )
    assert code == 2 and "comma-separated reals" in err


@pytest.mark.parametrize(
    "argv,digest",
    [
        (
            "rate --d 4 --p 3 --resolution 100",
            "55c85627f36517f65e00de6b091a6b8ecaac4f1afb4e008d7770b020a1c6bef2",
        ),
        (
            "rate --d 3 --p 2 --resolution 100",
            "aa8ac9bda11631d7a07e72afd34adc64ca0297b1951128b3b4e535360a7f905a",
        ),
        (
            "rate --d 4 --p 3 --resolution 100 --format csv",
            "5833988648fca5bf4de4f366c03e0a7c9e20055641f7b733362be705bc4696a6",
        ),
    ],
)
def test_rate_scan_golden_bytes(argv, digest, monkeypatch):
    # digests of the stdout of the LP-decided scans, before exact feasibility
    code, out, _ = run_cli(argv.split(), monkeypatch=monkeypatch)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv,digest,points,bits",
    [
        (
            "exact --n 20 --d 3 --p 5",
            "a4a1847e92f16edcda22d117ccdc61a6e37da365e9059194d5105743145b3561",
            56266,
            84,
        ),
        (
            "exact --n 60 --d 4 --p 3",
            "3992ed67a54a6093b4179eab283cefb8c93f2f49268c9ae5c48ffebd6aa7406b",
            7321,
            279,
        ),
        (
            "exact --n 1280 --d 3 --p 2",
            "d6acbbfd8e7d18858bd218bf28d84d003a36361f4397c8b0f48044662957510c",
            1281,
            2555,
        ),
        (
            "exact --n 20 --d 3 --p 5 --format csv",
            "3edfc830768921e07522bb855145b928284d24ff0ff056173a96b7d844d61f5f",
            56266,
            84,
        ),
    ],
)
def test_exact_golden_bytes(argv, digest, points, bits, monkeypatch):
    # digests of the stdout of the n-fold dict convolution, before the power recurrence
    tables = []
    real = walk_census.walk_endpoint_counts

    def recording(*args):
        tables.append(real(*args))
        return tables[-1]

    monkeypatch.setattr(walk_census, "walk_endpoint_counts", recording)
    code, out, _ = run_cli(argv.split(), monkeypatch=monkeypatch)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    (counts,) = tables
    assert (len(counts.counts), max(counts.counts.values()).bit_length()) == (points, bits)


def test_cli_import_leaves_scipy_out():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, regsing.cli; print('scipy' in sys.modules)"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_mc_artifacts_and_parallel_identity(tmp_path, monkeypatch):
    base = ["mc", "--n", "20", "--d", "3", "--p", "2,5", "--trials", "16", "--seed", "5"]
    code, out1, _ = run_cli(
        base + ["--parallel", "1", "--out", str(tmp_path / "a.json")], monkeypatch=monkeypatch
    )
    assert code == 0
    code, out8, _ = run_cli(
        base + ["--parallel", "8", "--out", str(tmp_path / "b.json")], monkeypatch=monkeypatch
    )
    assert code == 0
    assert out1 == out8
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    rec_a = (tmp_path / "a.records.jsonl").read_text().splitlines()
    rec_b = (tmp_path / "b.records.jsonl").read_text().splitlines()
    assert rec_a == rec_b and len(rec_a) == 16
    summary = json.loads(out1)
    assert summary["kind"] == "mc"
    assert set(summary["singular_mod"]) == {"2", "5"}


def test_env_dir_and_report(tmp_path, monkeypatch):
    run_cli(["exact", "--n", "4", "--d", "3", "--p", "2"], env_dir=tmp_path, monkeypatch=monkeypatch)
    run_cli(
        ["mc", "--n", "12", "--d", "3", "--p", "5", "--trials", "10", "--seed", "2"],
        env_dir=tmp_path,
        monkeypatch=monkeypatch,
    )
    run_cli(
        ["rate", "--d", "3", "--p", "2", "--resolution", "20"],
        env_dir=tmp_path,
        monkeypatch=monkeypatch,
    )
    assert (tmp_path / "exact_n4_d3_p2.json").exists()
    code, out, _ = run_cli(["report"], env_dir=tmp_path, monkeypatch=monkeypatch)
    assert code == 0
    header, *rows = out.strip().split("\n")
    assert header == "kind,claim,parameters,value,detail"
    text = "\n".join(rows)
    assert "kernel count over F_p tends to 1" in text
    assert "singular mod 5" in text
    assert "singular over the rationals" in text
    assert "negative away from the two equality points" in text
    assert (tmp_path / "report.csv").exists()
    code, out, _ = run_cli(
        ["report", "--format", "json"], env_dir=tmp_path, monkeypatch=monkeypatch
    )
    obj = json.loads(out)
    assert obj["kind"] == "report" and len(obj["rows"]) >= 4


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "regsing.cli", "exact", "--n", "3", "--d", "3", "--p", "2"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert '"key_sum":"27/28"' in proc.stdout
