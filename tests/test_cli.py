"""Command-line interface: outputs, artifacts, exit codes, determinism."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest

import regsing
from regsing import mc_harness, walk_census
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


def child_env():
    """os.environ with the directory that holds the imported regsing package
    first on PYTHONPATH, so a child interpreter imports the same package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(regsing.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


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
    # (520*3)! has over 4,300 digits, past Python's int-to-str limit: a
    # refusal that wrote it in decimal failed while it was built, and exited 2
    for n in ("5", "519", "520"):
        code, _, err = run_cli(["oracle", "--n", n, "--d", "3", "--p", "2"], monkeypatch=monkeypatch)
        assert code == 3, n
        assert "refused" in err


def test_rate_scan_guard_exit_code(monkeypatch):
    argvs = [
        # C(1004, 4) ~ 4.2e10 grid points: refused before the grid is built
        "rate --d 3 --p 5 --resolution 1000",
        # lattice and grid counts past the int-to-str limit, as for the oracle
        "rate --d 3 --p 100000007 --resolution 1000",
        "exact --n 1000 --d 3 --p 2147483647",
        "lclt --n 1000 --d 4 --p 1000003",
        # counted in full, these binomials took 36 and 40 CPU s before the
        # refusal; the guards' running product stops once it passes the guard
        "exact --n 1000000 --d 3 --p 1000003",
        "rate --d 3 --p 1000003 --resolution 10000000",
    ]
    for argv in argvs:
        start = time.process_time()
        code, out, err = run_cli(argv.split(), monkeypatch=monkeypatch)
        assert time.process_time() - start < 1.0, argv
        assert code == 3 and out == "", argv
        assert "refused" in err and str(walk_census.LATTICE_GUARD) in err


def test_oracle_refuses_before_the_walk(monkeypatch):
    # both guards refuse (30,3,7); the enumeration guard, checked first, speaks
    def walk(*args):
        raise AssertionError("the walk ran before the refusal")

    monkeypatch.setattr(walk_census, "walk_endpoint_counts", walk)
    code, out, err = run_cli("oracle --n 30 --d 3 --p 7".split(), monkeypatch=monkeypatch)
    assert code == 3 and out == ""
    assert err.startswith("refused: brute force over all (30*3)! permutations")


def test_workload_guard_exit_code_past_the_int_to_str_limit(monkeypatch):
    big = "1" + "0" * 2200  # n*trials has 4,401 digits
    argv = ["mc", "--n", big, "--d", "3", "--p", "5", "--trials", big]
    code, out, err = run_cli(argv, monkeypatch=monkeypatch)
    assert code == 3 and out == ""
    assert "refused" in err and str(mc_harness.WORKLOAD_GUARD) in err


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


@pytest.mark.parametrize(
    "argv,message",
    [
        (
            "mc --n 10 --d 3 --p 2,x --trials 2",
            "--p must be an integer or comma-separated integers, got '2,x'",
        ),
        ("mc --n 10 --d 3 --p 5,5 --trials 2", "primes must be distinct, got (5, 5)"),
        ("mc --n 10 --d 3 --p 5 --trials 2 --parallel 0", "parallelism must be positive"),
        ("mc --n 0 --d 3 --p 5 --trials 2", "n must be positive"),
        ("mc --n 10 --d 3 --p 5 --trials 2 --seed -1", "seed=-1 must lie in [0, 2^64)"),
        (
            "mc --n 10 --d 3 --p 5 --trials 2 --seed 18446744073709551616",
            "seed=18446744073709551616 must lie in [0, 2^64)",
        ),
        ("sample --n 4 --d 3 --stream -1", "stream=-1 must lie in [0, 2^64)"),
        ("rate --d 3 --p 2 --density 0.5,0.3,0.2", "--density must have 2 entries"),
        ("sample --n 0 --d 3", "n=0 must be >= 1"),
        ("exact --n 0 --d 3 --p 2", "n=0 must be >= 1"),
    ],
)
def test_invalid_input_exits_2_with_its_message(argv, message, tmp_path, monkeypatch):
    code, out, err = run_cli(argv.split(), env_dir=tmp_path, monkeypatch=monkeypatch)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("b", ["0", "-1", "nan", "inf"])
def test_window_b_must_be_finite_and_positive(b, monkeypatch):
    for cmd in ("exact", "lclt"):
        argv = [cmd, "--n", "10", "--d", "3", "--p", "2", f"--b-threshold={b}"]
        code, out, err = run_cli(argv, monkeypatch=monkeypatch)
        assert code == 2 and out == ""
        assert "must be finite and > 0" in err


def test_rate_has_no_tol_option():
    with redirect_stderr(io.StringIO()) as err:
        with pytest.raises(SystemExit) as exc:
            main("rate --d 3 --p 2 --density 0.5,0.5 --tol 1e-3".split())
    assert exc.value.code == 2 and "--tol" in err.getvalue()


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
    assert (counts.reached, max(counts.counts.values()).bit_length()) == (points, bits)


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def assert_rectangular(text: str) -> None:
    """Every row a CSV reader sees has the width of the first (the header)."""
    rows = list(csv.reader(io.StringIO(text)))
    assert rows and all(len(row) == len(rows[0]) for row in rows), text


# (argv, file written under REGSING_OUT_DIR, digest of stdout and of that
# file, other files written), captured before the artifact format moved
# into cli.py; the rate --density csv digests after its list cells were quoted
GOLDEN_ARTIFACTS = [
    (
        "sample --n 6 --d 3 --seed 9 --stream 2",
        "sample_n6_d3_s9_t2.json",
        "60042ffb8da4dc1b5695ff2ef24ea9390cf00d7625da3411723a029782679660",
        {},
    ),
    (
        "sample --n 6 --d 3 --seed 9 --stream 2 --format csv",
        "sample_n6_d3_s9_t2.csv",
        "6a81ba4dacee94dafc0d89c5b8f0b28af4c671ca27dbdea8ce8ab1185ac02b46",
        {},
    ),
    (
        "oracle --n 2 --d 3 --p 5",
        "oracle_n2_d3_p5.json",
        "051d1d2215d1ca90d34bc7a0c18c9324ab3588cac5dd1cfaad45debd64d6c2e6",
        {},
    ),
    (
        "oracle --n 2 --d 3 --p 5 --format csv",
        "oracle_n2_d3_p5.csv",
        "66bd169b4faff57efeca1398da5d00303d0d5e34f9c0329c7fab28f93ccc338a",
        {},
    ),
    (
        "lclt --n 12 --d 4 --p 3 --b-threshold 0.5",
        "lclt_n12_d4_p3_b0.5.json",
        "45fc550e78378ed0bfc129bc1bde8eaaf2b08885d15445df264af1815699b4f8",
        {},
    ),
    (
        "lclt --n 12 --d 4 --p 3 --b-threshold 0.5 --format csv",
        "lclt_n12_d4_p3_b0.5.csv",
        "9d30245d80fa876bfa0bc994e15fe5870821419d449d29da767806247776e9f3",
        {},
    ),
    (
        "exact --n 12 --d 3 --p 5",
        "exact_n12_d3_p5.json",
        "eca157d4caf73fb142f9e23281991e04ae617fca4bcdbb82595733617ae80e55",
        {},
    ),
    (
        "exact --n 12 --d 3 --p 5 --format csv",
        "exact_n12_d3_p5.csv",
        "d7f6c7be457aab1e3a71adceed7d419fb902be8b07c164dc41761c0ed6f41af5",
        {},
    ),
    (
        "rate --d 4 --p 3 --density 0.2,0.3,0.5",
        "rate_d4_p3_nu0.2-0.3-0.5.json",
        "ec2e9c3b9c37829bcbe33f8f8a8153d04ce29566077dca66fa25ecddd41e84ea",
        {},
    ),
    (
        "rate --d 4 --p 3 --density 0.2,0.3,0.5 --format csv",
        "rate_d4_p3_nu0.2-0.3-0.5.csv",
        "638d2a1003ef1b26dbf2e449c23d465179c42fb2297b4aeb8c51d913aa07d28f",
        {},
    ),
    (
        "rate --d 3 --p 2 --density 1,0",
        "rate_d3_p2_nu1-0.json",
        "73b6adbed4f61e8d47a83720732aef210d56b3e9f3539a0eec66aad23f50a9b8",
        {},
    ),
    (
        "rate --d 3 --p 2 --density 1,0 --format csv",
        "rate_d3_p2_nu1-0.csv",
        "ae786d9260ea508d554180d9d3d91216e034ec5175191948ff3a6d575aee65ec",
        {},
    ),
    (
        "rate --d 3 --p 2 --density 0.1,0.9",
        "rate_d3_p2_nu0.1-0.9.json",
        "44ac72b7eb1ee1e1187427ca5c2396a804366cb0f2a58a0305f7dfa90269f182",
        {},
    ),
    (
        "rate --d 3 --p 2 --density 0.1,0.9 --format csv",
        "rate_d3_p2_nu0.1-0.9.csv",
        "194e9a18cd1df9443f5f2faa012fb6c0505e2897acabb8b5c1767badf18b7345",
        {},
    ),
    (
        "rate --d 3 --p 2 --resolution 20",
        "ratescan_d3_p2_r20.json",
        "70ee066c74275ebb66737ea28ed2a77fdd2168f8f57bb63220036b57e939cb22",
        {},
    ),
    (
        "rate --d 3 --p 2 --resolution 20 --format csv",
        "ratescan_d3_p2_r20.csv",
        "9cb9ab399509ff2364149aeb339a4d4976c206b8301155d289142408eaee1939",
        {},
    ),
    (
        "mc --n 20 --d 3 --p 2,5 --trials 16 --seed 5",
        "mc_n20_d3_p2-5_t16_s5.json",
        "9a40d29dfab4d6b515972d0d82ef84d4d20f28f2a9aa485b20807276f95d3b2f",
        {
            "mc_n20_d3_p2-5_t16_s5.records.jsonl": (
                "8eaa2d0277c311c57308e7537737e4ec99be2012c31633c847b213632fb2dc1c"
            )
        },
    ),
    (
        "mc --n 20 --d 3 --p 2,5 --trials 16 --seed 5 --format csv",
        "mc_n20_d3_p2-5_t16_s5.csv",
        "ae9f8235872fbba2f767e06776f7ce2fedc534b3ff425e0d4efa900dbcd23c66",
        {
            "mc_n20_d3_p2-5_t16_s5.records.jsonl": (
                "8eaa2d0277c311c57308e7537737e4ec99be2012c31633c847b213632fb2dc1c"
            )
        },
    ),
]


@pytest.mark.parametrize(
    "argv,name,digest,others", GOLDEN_ARTIFACTS, ids=[g[0] for g in GOLDEN_ARTIFACTS]
)
def test_artifact_golden_bytes(argv, name, digest, others, tmp_path, monkeypatch):
    code, out, _ = run_cli(argv.split(), env_dir=tmp_path, monkeypatch=monkeypatch)
    assert code == 0
    assert sha(out.encode()) == digest
    assert {f.name: sha(f.read_bytes()) for f in tmp_path.iterdir()} == {name: digest, **others}
    if name.endswith(".csv"):
        assert_rectangular(out)


REPORT_SOURCES = [
    "sample --n 6 --d 3 --seed 9",
    "exact --n 12 --d 3 --p 5",
    "oracle --n 2 --d 3 --p 5",
    "lclt --n 12 --d 4 --p 3 --b-threshold 0.5",
    "rate --d 4 --p 3 --density 0.2,0.3,0.5",
    "rate --d 3 --p 2 --density 0.1,0.9",
    "rate --d 3 --p 2 --resolution 20",
    "mc --n 20 --d 3 --p 2,5 --trials 16 --seed 5",
]
REPORT_CSV = "749125ec2f510974bf2b707a6c170338dae36e02992067a01acc1f518bf4b0b6"
REPORT_JSON = "e0767ad7fdeab2f6cf2a90a98c076917a57787c166acdcf1384c2434e79de5dd"


def test_report_golden_bytes(tmp_path, monkeypatch):
    for argv in REPORT_SOURCES:
        assert run_cli(argv.split(), env_dir=tmp_path, monkeypatch=monkeypatch)[0] == 0
    (tmp_path / "broken.json").write_text("{")
    (tmp_path / "list.json").write_text("[1, 2]")
    # report writes into the directory it scans: REGSING_OUT_DIR, --out DIR or the cwd
    code, out, _ = run_cli(["report"], env_dir=tmp_path, monkeypatch=monkeypatch)
    assert code == 0 and sha(out.encode()) == REPORT_CSV
    assert sha((tmp_path / "report.csv").read_bytes()) == REPORT_CSV
    assert_rectangular(out)
    (tmp_path / "report.csv").unlink()
    code, out, _ = run_cli(
        ["report", "--format", "json", "--out", str(tmp_path)], monkeypatch=monkeypatch
    )
    assert code == 0 and sha(out.encode()) == REPORT_JSON
    assert sha((tmp_path / "report.json").read_bytes()) == REPORT_JSON
    (tmp_path / "report.json").unlink()
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(["report"], monkeypatch=monkeypatch)
    assert code == 0 and sha(out.encode()) == REPORT_CSV
    assert sha((tmp_path / "report.csv").read_bytes()) == REPORT_CSV
    # --out FILE takes the table; the scanned directory is still the cwd
    target = tmp_path / "tables" / "claims.csv"
    code, out, _ = run_cli(["report", "--out", str(target)], monkeypatch=monkeypatch)
    assert code == 0 and sha(out.encode()) == REPORT_CSV
    assert sha(target.read_bytes()) == REPORT_CSV


def test_report_skips_an_artifact_missing_a_field(tmp_path, monkeypatch):
    argv = "exact --n 3 --d 3 --p 2".split()
    assert run_cli(argv, env_dir=tmp_path, monkeypatch=monkeypatch)[0] == 0
    (tmp_path / "short_exact.json").write_text('{"kind":"exact","n":1}')
    (tmp_path / "short_mc.json").write_text('{"kind":"mc","n":1,"d":3,"trials":2,"seed":0}')
    code, out, err = run_cli(["report"], env_dir=tmp_path, monkeypatch=monkeypatch)
    assert code == 0 and err == ""
    header, *rows = out.strip().split("\n")
    assert header == "kind,claim,parameters,value,detail"
    assert len(rows) == 1 and '"n=3 d=3 p=2"' in rows[0]


def test_report_on_a_missing_directory_exits_2(tmp_path, monkeypatch):
    missing = tmp_path / "missing"
    code, out, err = run_cli(["report"], env_dir=missing, monkeypatch=monkeypatch)
    assert code == 2 and out == ""
    assert err.startswith("error: report cannot list the artifact directory")
    assert str(missing) in err
    assert not missing.exists()


def test_out_naming_a_directory_takes_the_default_file_name(tmp_path, monkeypatch):
    code, out, _ = run_cli(
        ["exact", "--n", "3", "--d", "3", "--p", "2", "--out", str(tmp_path)], monkeypatch=monkeypatch
    )
    assert code == 0
    assert [f.name for f in tmp_path.iterdir()] == ["exact_n3_d3_p2.json"]
    assert (tmp_path / "exact_n3_d3_p2.json").read_text() == out


def test_cli_import_leaves_scipy_out():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, regsing.cli; print('scipy' in sys.modules)"],
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_mc_artifacts_and_parallel_identity(tmp_path, monkeypatch):
    # n = 20 blocks hold 2^18 // 400 = 655 trials: 800 trials are two blocks,
    # so --parallel 8 runs them on two workers
    base = ["mc", "--n", "20", "--d", "3", "--p", "2,5", "--trials", "800", "--seed", "5"]
    with mock.patch.object(mc_harness, "run_block", wraps=mc_harness.run_block) as spy:
        code, out1, _ = run_cli(
            base + ["--parallel", "1", "--out", str(tmp_path / "a.json")], monkeypatch=monkeypatch
        )
    assert code == 0
    assert spy.call_count >= 2
    code, out8, _ = run_cli(
        base + ["--parallel", "8", "--out", str(tmp_path / "b.json")], monkeypatch=monkeypatch
    )
    assert code == 0
    assert out1 == out8
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    rec_a = (tmp_path / "a.records.jsonl").read_text().splitlines()
    rec_b = (tmp_path / "b.records.jsonl").read_text().splitlines()
    assert rec_a == rec_b and len(rec_a) == 800
    summary = json.loads(out1)
    assert summary["kind"] == "mc"
    assert set(summary["singular_mod"]) == {"2", "5"}


def test_mc_records_file_keeps_the_whole_stem(tmp_path, monkeypatch):
    # run.v1.json and run.v2.json each get their own records file
    for name, trials in (("run.v1.json", 5), ("run.v2.json", 7)):
        argv = f"mc --n 10 --d 3 --p 5 --trials {trials} --out {tmp_path / name}".split()
        assert run_cli(argv, monkeypatch=monkeypatch)[0] == 0
    assert sorted(f.name for f in tmp_path.iterdir()) == [
        "run.v1.json", "run.v1.records.jsonl", "run.v2.json", "run.v2.records.jsonl"
    ]
    for stem, trials in (("run.v1", 5), ("run.v2", 7)):
        assert len((tmp_path / f"{stem}.records.jsonl").read_text().splitlines()) == trials


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
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert '"key_sum":"27/28"' in proc.stdout
