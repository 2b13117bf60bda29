import csv
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from steinhaus import Orientation, full_search
from steinhaus.cli import WITNESS_WORK_LIMIT, main

CLI = [sys.executable, "-m", "steinhaus.cli"]


def run_cli(*args, check=True, env=None):
    result = subprocess.run(
        CLI + list(args), capture_output=True, text=True, env=env
    )
    if check and result.returncode != 0:
        raise AssertionError(f"cli failed: {result.returncode}\n{result.stderr}")
    return result


def run_cli_bytes(*args):
    result = subprocess.run(CLI + list(args), capture_output=True)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_kernel_csv_matches_golden(golden_dir):
    out = run_cli("kernel", "--p-max", "24", "--format", "csv").stdout
    assert out == (golden_dir / "kernel_dimensions.csv").read_text()


def test_classes_csv_matches_golden(golden_dir):
    out = run_cli("classes", "--p-max", "24", "--format", "csv").stdout
    assert out == (golden_dir / "class_counts.csv").read_text()


def test_balanced_classes_csv_matches_golden(golden_dir):
    out = run_cli("balanced-classes", "--p-max", "24", "--format", "csv").stdout
    assert out == (golden_dir / "balanced_class_counts.csv").read_text()


def test_balanced_class_listing_matches_golden(golden_dir):
    out = run_cli("balanced-classes", "--p", "24", "--format", "csv").stdout
    lines = out.strip().splitlines()
    rows = [line.split(",")[:2] for line in lines[1:]]
    golden = (golden_dir / "balanced_representatives_p24.csv").read_text().strip().splitlines()
    assert ["index,representative"] + [",".join(r) for r in rows] == golden


def test_class_listing_csv():
    out = run_cli("classes", "--p", "6", "--format", "csv").stdout
    assert out.splitlines() == [
        "p,representative,orbit_size",
        "6,000000,1",
        "6,000101,12",
        "6,011011,3",
    ]


def test_triangle_seed():
    out = run_cli("triangle", "--seed-tuple", "0010100").stdout
    assert "counts 0:14 1:14" in out
    assert "balanced=yes" in out


def test_triangle_pascal_json():
    out = run_cli(
        "triangle", "--left", "0000101", "--right", "0100001", "--format", "json"
    ).stdout
    payload = json.loads(out)
    assert payload["balanced"] is True
    assert payload["counts"] == {"0": 14, "1": 14}
    assert payload["triangle"]["size"] == 7
    assert payload["triangle"]["rows"][6] == [1, 0, 1, 0, 0, 1, 1]


def test_triangle_mod7():
    out = run_cli("triangle", "--seed-tuple", "2330445", "--modulus", "7").stdout
    assert "balanced=yes" in out


def test_search_p12_empty_json():
    payload = json.loads(run_cli("search", "--p", "12", "--format", "json").stdout)
    assert [c["steinhaus"]["remainder_count"] for c in payload["classes"]] == [0, 0]
    assert [c["pascal"]["remainder_count"] for c in payload["classes"]] == [0, 0]


def test_search_p24_json_counts():
    payload = json.loads(
        run_cli("search", "--p", "24", "--kind", "steinhaus", "--format", "json").stdout
    )
    counts = [c["steinhaus"]["remainder_count"] for c in payload["classes"]]
    assert counts == [18, 16, 23, 24, 17, 24, 24, 24, 24, 23, 24, 23, 20, 20, 23, 0, 0]
    witness = payload["classes"][8]["steinhaus"]["witnesses"][0]
    assert set(witness) == {
        "kind", "generator", "position", "remainder",
        "corner_counts", "band_counts", "period_counts", "z",
    }


def test_search_k_verify():
    out = run_cli("search", "--p", "12", "--k-verify", "2").stdout
    assert "verified 0 certificates" in out


def test_census_csv():
    out = run_cli("census", "--kind", "steinhaus", "--n-max", "3", "--format", "csv").stdout
    lines = out.strip().splitlines()
    assert lines[0] == "n,triangles,total_ones,average,expected_average,max_ones,formula_max"
    assert lines[1] == "1,2,1,0.5,0.5,1,1"
    assert lines[3] == "3,8,24,3.0,3.0,4,4"


@pytest.mark.parametrize("kind", ["steinhaus", "pascal"])
def test_census_csv_matches_golden(golden_dir, kind):
    out = run_cli("census", "--kind", kind, "--format", "csv").stdout
    assert out == (golden_dir / f"census_{kind}.csv").read_text()


@pytest.mark.parametrize("kind", ["steinhaus", "pascal"])
@pytest.mark.parametrize("modulus", ["3", "5", "7"])
def test_modm_interlaced_csv_matches_golden(golden_dir, modulus, kind):
    """Every size's spread of the interlaced scan at the default sizes."""
    out = run_cli(
        "modm", "--scan", "interlaced", "--modulus", modulus, "--kind", kind, "--format", "csv"
    ).stdout
    assert out == (golden_dir / f"modm_interlaced_m{modulus}_{kind}.csv").read_text()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_search_p36_matches_golden(golden_dir, fmt):
    """Two balanced-period classes at p = 36, neither with a witness in either kind."""
    out = run_cli("search", "--p", "36", "--format", fmt).stdout
    assert out == (golden_dir / f"search_p36.{fmt}").read_text()


# command -> SHA-256 of its output bytes, frozen while a certificate still held
# three MultiplicityTables; covers every certificate field that search prints.
# The p = 264 and p = 2028 rows were checked against a full p^2 anchor scan of
# each class's own grid, without the lift to its true period
with open(Path(__file__).parent / "golden" / "search_sha256.csv", newline="") as _handle:
    SEARCH_DIGESTS = [(row["command"], row["sha256"]) for row in csv.DictReader(_handle)]


@pytest.mark.parametrize("command,digest", SEARCH_DIGESTS, ids=[c for c, _ in SEARCH_DIGESTS])
def test_search_output_matches_frozen_digest(command, digest, tmp_path):
    out = tmp_path / "out"
    assert main(command.split() + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_modm_ap_csv():
    out = run_cli(
        "modm", "--scan", "ap", "--modulus", "3", "--n-max", "6", "--format", "csv"
    ).stdout
    lines = out.strip().splitlines()
    assert lines[0] == "m,sequence,n,balanced,spread"
    assert lines[5] == "3,1,5,yes,0"
    assert lines[6] == "3,1,6,yes,0"


def test_modm_interlaced_csv():
    out = run_cli(
        "modm", "--scan", "interlaced", "--modulus", "3", "--n-max", "9",
        "--format", "csv",
    ).stdout
    assert "3,interlaced,9,yes,0" in out


def test_render_orbit_pbm(tmp_path: Path):
    target = tmp_path / "orbit.pbm"
    run_cli(
        "render", "orbit", "--seed-tuple", "000000101000111110001101",
        "--out", str(target),
    )
    tokens = target.read_text().split()
    assert tokens[:3] == ["P1", "24", "24"]
    assert sum(1 for t in tokens[3:] if t == "1") == 288


def test_render_family(tmp_path: Path):
    target = tmp_path / "family.pbm"
    run_cli(
        "render", "family", "--seed-tuple", "000000101000111110001101",
        "--i0", "6", "--j0", "9", "--r", "6", "--k", "1", "--out", str(target),
    )
    tokens = target.read_text().split()
    assert tokens[:3] == ["P1", "30", "30"]
    # --k 0 draws the remainder triangle alone
    assert main([
        "render", "family", "--seed-tuple", "000000101000111110001101",
        "--i0", "6", "--j0", "9", "--r", "6", "--k", "0", "--out", str(target),
    ]) == 0
    assert target.read_text().split()[:3] == ["P1", "6", "6"]


def test_render_family_rejection_exits_one(tmp_path: Path):
    result = run_cli(
        "render", "family", "--seed-tuple", "000001110111000001110111",
        "--i0", "0", "--j0", "0", "--r", "5", "--k", "1",
        "--out", str(tmp_path / "x.pbm"), check=False,
    )
    assert result.returncode == 1
    assert "balanced family" in result.stderr


def test_validation_failure_exit_code():
    result = run_cli("triangle", "--seed-tuple", "012", check=False)
    assert result.returncode == 1
    assert result.stderr.startswith("error:")


def test_usage_error_exit_code():
    result = run_cli("no-such-command", check=False)
    assert result.returncode == 2


def test_byte_determinism():
    args = ("search", "--p", "12", "--format", "json")
    assert run_cli_bytes(*args) == run_cli_bytes(*args)


def test_jobs_accepts_only_one(capsys):
    """The search has no process pool; --jobs 1 still parses, and any other
    count is a usage error."""
    assert main(["search", "--p", "12", "--jobs", "1"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_info:
        main(["search", "--p", "12", "--jobs", "2"])
    assert exit_info.value.code == 2
    assert "invalid choice: 2" in capsys.readouterr().err


def test_out_flag_writes_file(tmp_path: Path):
    target = tmp_path / "kernel.csv"
    run_cli("kernel", "--p-max", "6", "--format", "csv", "--out", str(target))
    assert target.read_text().splitlines()[3] == "3,2,4"


@pytest.mark.parametrize(
    "args",
    [
        ("kernel", "--p", "0"),
        ("kernel", "--p-max", "-1"),
        ("classes", "--p", "0"),
        ("balanced-classes", "--p-max", "0"),
        ("search", "--p", "0"),
        ("search", "--p", "12", "--jobs", "-3"),
        ("search", "--p", "12", "--k-verify", "-1"),
        ("census", "--n-max", "0"),
        ("modm", "--scan", "ap", "--modulus", "5", "--n-max", "0"),
        ("modm", "--scan", "interlaced", "--modulus", "3", "--periods", "0"),
        ("render", "orbit", "--seed-tuple", "0110", "--cell-size", "0", "--out", os.devnull),
        ("render", "family", "--seed-tuple", "0110", "--k", "-1", "--out", os.devnull),
    ],
    ids=" ".join,
)
def test_non_positive_arguments_are_usage_errors(args, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(list(args))
    assert exit_info.value.code == 2
    assert "must be" in capsys.readouterr().err


def test_k_verify_zero_is_accepted(capsys):
    assert main(["search", "--p", "12", "--k-verify", "0"]) == 0
    assert "verified" not in capsys.readouterr().out


def test_search_json_witness_without_certificate_exits_one(monkeypatch, capsys):
    # a scan witness that check_family rejects has no certificate to print
    monkeypatch.setattr("steinhaus.cli.check_family", lambda *args: None)
    assert main(["search", "--p", "24", "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: witness (")
    assert "failed check_family" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""
    assert main(["search", "--p", "24", "--k-verify", "1"]) == 1
    assert "failed oracle verification at K=1" in capsys.readouterr().err


def test_oversized_interlaced_scan_exits_one():
    result = run_cli(
        "modm", "--scan", "interlaced", "--modulus", "3", "--n-max", "100000", check=False
    )
    assert result.returncode == 1
    assert result.stderr.startswith("error:") and "work bound" in result.stderr
    assert "Traceback" not in result.stderr


def _limit_child_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def _request_id(value):
    """Test id of one request: its words, a long tuple named by its length."""
    return " ".join(word if len(word) <= 12 else f"<{len(word)} entries>" for word in value)


@pytest.mark.parametrize(
    "args,message",
    [
        (("kernel", "--p", "10000"), "period 10000 exceeds the bound"),
        (("kernel", "--p-max", "5000"), "period 5000 exceeds the bound 2048"),
        (("kernel", "--p-max", "2049"), "period 2049 exceeds the bound 2048"),
        (("classes", "--p", "5000"), "period 5000 exceeds the bound"),
        (("classes", "--p", "28"), "kernel dimension 24 exceeds 20"),
        (("classes", "--p", "56"), "kernel dimension 48 exceeds 20"),
        (("search", "--p", "28"), "kernel dimension 24 exceeds 20"),
        (("search", "--p", "5000"), "period 5000 exceeds the bound"),
        (("search", "--p", "648", "--format", "csv"), "witnesses of period 648 exceed the work bound"),
        (("search", "--p", "24", "--k-verify", "100000"), "triangle of size 2400023 exceeds the bound"),
        (("triangle", "--seed-tuple", "0" * 3000), "triangle of size 3000 exceeds the bound"),
        (("triangle", "--left", "1" * 3000, "--right", "1" * 3000), "triangle of size 3000 exceeds"),
        (("triangle", "--seed-tuple", "0110", "--modulus", "1000000000"), "modulus 1000000000 exceeds"),
        (("modm", "--scan", "ap", "--modulus", "1000000007", "--n-max", "5"), "modulus 1000000007 exceeds"),
        (("modm", "--scan", "ap", "--modulus", "101"), "work bound"),
        (("modm", "--scan", "ap", "--modulus", "7", "--n-max", "1578"), "work bound"),
        (("render", "orbit", "--seed-tuple", "0110", "--window", "100000000:100000001,0:4",
          "--out", os.devnull), "rows of 4 cells exceeds the pixel cap"),
        (("render", "family", "--seed-tuple", "1" + "0" * 4095, "--out", os.devnull),
         "period 4096 exceeds the bound 2048"),
    ],
    ids=_request_id,
)
def test_oversized_requests_are_refused(args, message):
    """Each request is refused before its work starts.  The child runs under
    a 1 GiB address-space limit and a timeout, so a bound that stops holding
    fails this test instead of exhausting the machine's memory."""
    result = subprocess.run(
        CLI + list(args), capture_output=True, text=True, timeout=60,
        preexec_fn=_limit_child_memory,
    )
    assert result.returncode == 1
    assert result.stderr.startswith("error:") and message in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("args", [("--format", "csv"), ("--k-verify", "1")], ids=" ".join)
def test_witness_bound_refuses_p648_before_any_witness_work(args, tmp_path, capsys):
    out = tmp_path / "out"
    start = time.perf_counter()
    assert main(["search", "--p", "648", *args, "--out", str(out)]) == 1
    assert time.perf_counter() - start < 2
    assert "17658 witnesses of period 648 exceed the work bound" in capsys.readouterr().err
    assert not out.exists()


def test_witness_bound_accepts_p264_in_every_format(tmp_path):
    """p = 264 has 7 194 witnesses, 91% of the bound; text output runs in
    the search digests."""
    report = full_search(264)
    assert sum(len(entry.remainders(kind)) for entry in report.classes for kind in Orientation) == 7194
    assert 7194 * 264 <= WITNESS_WORK_LIMIT
    out = tmp_path / "out"
    assert main(["search", "--p", "264", "--format", "csv", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 7194 + 1
    assert main(["search", "--p", "264", "--format", "json", "--k-verify", "1", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["verified_certificates"] == 7194


def test_kernel_table_within_bounds(capsys):
    out = run_cli("kernel", "--p-max", "36", "--format", "csv").stdout
    assert out.splitlines()[-1] == "36,8,256"
    # the period bound is the table's only bound
    assert main(["kernel", "--p-max", "2048", "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "2048,0,1"


def test_out_into_missing_directory_exits_one(tmp_path: Path):
    result = run_cli(
        "kernel", "--p-max", "4", "--out", str(tmp_path / "missing" / "x.csv"), check=False
    )
    assert result.returncode == 1
    assert result.stderr.startswith("error:")
    assert "Traceback" not in result.stderr
