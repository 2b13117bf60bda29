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
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from expected_values import CLASS9_REP

from steinhaus import Orientation, census, cli, full_search
from steinhaus.cli import WITNESS_WORK_LIMIT, main
from steinhaus.symmetry import balanced_classes, partition_classes

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
@pytest.mark.parametrize("modulus", ["3", "5", "7", "9", "11"])
def test_modm_interlaced_csv_matches_golden(golden_dir, modulus, kind):
    """Every size's spread of the interlaced scan at the default sizes.  The
    m = 9 and 11 files were frozen while the scan still packed all (6m)^2
    anchors of the period."""
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
# each class's own grid, without the lift to its true period.  The p = 1944
# rows of search and balanced-classes were frozen while the balance filter
# still counted every class's ones on its own p-by-p grid, and the p = 216 CSV
# row while each generator field was still str of a generator_tuple.  The
# classes rows of p = 1944 and 216, whose kernel period is 24, were frozen
# while the partition still walked p-bit kernel coordinates, and the p = 216
# JSON row, whose 5 886 certificates print corner and band counts, while
# check_family still read them from the oracle's line-count stream.  The JSON
# rows of p = 72 with one kind, of p = 8 (no classes) and of p = 264 were
# frozen while the search still built its payload as one tree of dicts and
# wrote it with jsonout.indented
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


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "sides,message",
    [(("--seed-tuple", ""), "the seed tuple is empty"),
     (("--left", "", "--right", ""), "sides must contain at least the apex entry")],
    ids=["seed", "sides"],
)
def test_empty_triangle_arguments_are_refused(sides, message, fmt, capsys):
    """An empty argument is refused, not read as a size-0 triangle."""
    assert main(["triangle", *sides, "--format", fmt]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


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


def test_census_over_bound_is_refused_before_counting(capsys):
    census._census.cache_clear()
    assert main(["census", "--kind", "pascal", "--n-max", "11"]) == 1
    assert capsys.readouterr().err == "error: census of size 11 exceeds the bound 10\n"
    assert census._census.cache_info().currsize == 0


@pytest.mark.parametrize("command", ["classes", "balanced-classes"])
def test_class_table_over_bound_is_refused_before_the_first_row(command, capsys):
    partition_classes.cache_clear()
    balanced_classes.cache_clear()
    assert main([command, "--p-max", "28"]) == 1
    assert capsys.readouterr() == ("", "error: kernel dimension 24 exceeds 20\n")
    assert partition_classes.cache_info().currsize == 0
    assert balanced_classes.cache_info().currsize == 0


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


@pytest.mark.parametrize(
    "args",
    [
        ("kernel", "--p", "6", "--p-max", "24"),
        ("classes", "--p-max", "8", "--p", "6"),
        ("balanced-classes", "--p", "24", "--p-max", "24"),
    ],
    ids=" ".join,
)
def test_period_and_period_range_are_exclusive(args, capsys):
    """--p-max would be dropped beside --p, so both together are a usage error."""
    with pytest.raises(SystemExit) as exit_info:
        main(list(args))
    assert exit_info.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


# census-modm's seven commands (perfbench/workloads.py), run in one process
CENSUS_MODM_COMMANDS = [
    ["census", "--kind", "pascal"],
    ["census", "--kind", "steinhaus"],
    *(["modm", "--scan", "interlaced", "--modulus", m] for m in ("3", "5", "7")),
    *(["modm", "--scan", "ap", "--modulus", m] for m in ("5", "7")),
]


def test_commands_in_one_process_write_what_fresh_processes_write(tmp_path):
    """main reuses one parser: each of seven commands run in turn in this
    process writes, byte for byte, the stdout of its own fresh process."""
    for k, argv in enumerate(CENSUS_MODM_COMMANDS):
        assert main([*argv, "--format", "csv", "--out", str(tmp_path / f"{k}.csv")]) == 0
    for k, argv in enumerate(CENSUS_MODM_COMMANDS):
        assert (tmp_path / f"{k}.csv").read_bytes() == run_cli_bytes(*argv, "--format", "csv"), argv


def test_a_usage_error_leaves_the_parser_usable(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["search", "--p", "0"])
    assert exit_info.value.code == 2
    capsys.readouterr()
    assert main(["search", "--p", "12"]) == 0
    assert capsys.readouterr().out.encode() == run_cli_bytes("search", "--p", "12")


def test_the_period_range_default_follows_an_explicit_value(golden_dir, capsys):
    """An explicit --p-max leaves the shared parser's "24" default as it was:
    the next parse without it still converts it, and an explicit --p-max 24
    still conflicts with --p."""
    assert main(["classes", "--p-max", "12", "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("12,")
    assert main(["classes", "--format", "csv"]) == 0
    assert capsys.readouterr().out == (golden_dir / "class_counts.csv").read_text()
    with pytest.raises(SystemExit) as exit_info:
        main(["classes", "--p", "6", "--p-max", "24"])
    assert exit_info.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_main_builds_one_parser_and_build_parser_a_fresh_one():
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()


def test_importing_the_cli_builds_no_parser():
    code = "import steinhaus.cli as cli; print(cli._parser.cache_info().currsize)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert result.stdout == "0\n"


IGNORED_OPTIONS = [
    (("triangle", "--seed-tuple", "0110", "--left", "01", "--right", "01"),
     "supply --seed-tuple or both --left and --right, not both"),
    (("triangle", "--seed-tuple", "0110", "--right", "01"),
     "supply --seed-tuple or both --left and --right, not both"),
    (("modm", "--scan", "ap", "--modulus", "5", "--kind", "pascal"),
     "--scan ap scans Steinhaus triangles only; --kind applies to --scan interlaced"),
    (("modm", "--scan", "interlaced", "--modulus", "3", "--difference", "2", "--start", "1"),
     "--difference and --start apply to --scan ap only"),
    (("modm", "--scan", "interlaced", "--modulus", "3", "--start", "0"),
     "--difference and --start apply to --scan ap only"),
]


@pytest.mark.parametrize("args,message", IGNORED_OPTIONS, ids=[" ".join(a) for a, _ in IGNORED_OPTIONS])
def test_options_the_command_ignores_are_refused(args, message, capsys):
    """An option that the chosen command would drop is a validation failure,
    with nothing on stdout."""
    assert main(list(args)) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_ap_scan_defaults_match_explicit_options(capsys):
    """--difference 1 --start 0 --kind steinhaus are the ap scan's defaults."""
    assert main(["modm", "--scan", "ap", "--modulus", "5"]) == 0
    implicit = capsys.readouterr().out
    assert main(["modm", "--scan", "ap", "--modulus", "5", "--difference", "1",
                 "--start", "0", "--kind", "steinhaus"]) == 0
    assert capsys.readouterr().out == implicit


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


def test_a_failed_certificate_writes_nothing(tmp_path, capsys, monkeypatch):
    """Every certificate is checked before the first byte goes out: with the
    oracle rejecting the last witness, the search exits 1, prints nothing
    on stdout and creates no --out file."""
    report = full_search(24)
    witnesses = [(entry.index, w) for entry in report.classes for kind in Orientation
                 for w in entry.remainders(kind).witnesses]
    calls = []
    verify = cli.oracle_verify_family

    def rejecting_the_last(cert, k):
        calls.append(cert)
        return len(calls) % len(witnesses) != 0 and verify(cert, k)

    monkeypatch.setattr(cli, "oracle_verify_family", rejecting_the_last)
    index, (r, i0, j0) = witnesses[-1]
    message = f"witness ({i0},{j0},{r}) of class {index} failed oracle verification at K=1"
    command = ["search", "--p", "24", "--k-verify", "1", "--format", "json"]
    assert main(command) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err
    out = tmp_path / "out.json"
    assert main(command + ["--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()
    assert len(calls) == 2 * len(witnesses)


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


# each command's options, each with values that run, and values that the command
# refuses: zero, negative, non-numeric, past a bound, or malformed
BAD = ["0", "-3", "x", "", "1.5"]
COMMAND_OPTIONS = {
    "triangle": {"--seed-tuple": ["0110100", "012", "1" * 2049, ""], "--left": ["0110", "0"],
                 "--right": ["0101", "1101"], "--modulus": ["2", "3", "7", "1"]},
    "kernel": {"--p": ["24", "2048", "2049"], "--p-max": ["24", "2048", "2049"]},
    "classes": {"--p": ["12", "24", "28", "1944", "3000"], "--p-max": ["12", "28", "3000"]},
    "balanced-classes": {"--p": ["24", "36", "28", "1944", "2044"], "--p-max": ["24", "28", "3000"]},
    "search": {"--p": ["8", "24", "36", "72", "28", "2044", "3000"], "--kind": ["pascal", "both"],
               "--k-verify": ["1", "4", "100", "-1"], "--jobs": ["1", "2"]},
    "census": {"--kind": ["pascal", "steinhaus"], "--n-max": ["5", "10", "17", "1000000"]},
    "modm": {"--scan": ["ap", "interlaced"], "--modulus": ["3", "5", "7", "4", "1000001"],
             "--difference": ["1", "2"], "--start": ["0", "1"], "--n-max": ["20", "1000000"],
             "--periods": ["1", "3", "1000000"], "--kind": ["pascal", "steinhaus"]},
    "render": {"target": ["orbit", "family"], "--seed-tuple": ["010100", CLASS9_REP, "1" * 5000, "12"],
               "--modulus": ["2", "3"], "--window": ["0:8,0:8", "5000:5001,0:10", "3:1,0:4", "0:9"],
               "--cell-size": ["1", "3", "1000000"], "--i0": ["0", "-5"], "--j0": ["2"], "--r": ["0", "5"],
               "--k": ["1", "1000000"], "--kind": ["pascal", "steinhaus"]},
}

REQUIRED = {"search": ("--p",), "modm": ("--scan", "--modulus"), "render": ("target", "--seed-tuple")}


@st.composite
def cli_arguments(draw):
    """A command, a draw of its options (each required one present, any other
    present or not; a value that runs or one that is refused), a --format
    and, at times, an unknown option; the order of the options is drawn too."""
    command = draw(st.sampled_from(sorted(COMMAND_OPTIONS) + ["nope"]))
    pairs = []
    for name, values in COMMAND_OPTIONS.get(command, {}).items():
        if name in REQUIRED.get(command, ()) or draw(st.booleans()):
            value = draw(st.sampled_from(values) if draw(st.integers(0, 7)) else st.sampled_from(BAD))
            pairs.append([value] if name == "target" else [name, value])
    if command != "render":
        pairs.append(["--format", draw(st.sampled_from(["text", "csv", "json"] * 3 + ["xml"]))])
    if draw(st.integers(0, 9)) == 0:
        pairs.append([draw(st.sampled_from(["--bogus", "--p", "-q"]))])
    return [command] + [arg for pair in draw(st.permutations(pairs)) for arg in pair]


@given(cli_arguments())
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_every_argument_list_keeps_the_exit_code_contract(tmp_path, argv):
    """cli.main returns 0 or 1, or argparse exits with 2, on any argument list:
    no other exception escapes, whatever the values."""
    out = tmp_path / "out"
    try:
        code = main(argv + ["--out", str(out)])
    except SystemExit as exc:
        assert exc.code == 2, argv
    else:
        assert code in (0, 1), argv
