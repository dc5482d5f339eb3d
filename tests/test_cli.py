import json
import subprocess
import sys

import pytest

from theta_parity import classify, partition
from theta_parity.cli import dispatch


def run_cli(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr().out
    records = [json.loads(line) for line in out.splitlines() if line]
    return code, records


def test_series_record(capsys):
    code, records = run_cli(capsys, "series", "--m", "4", "--terms", "13")
    assert code == 0
    (rec,) = records
    assert rec["support"] == [0, 2, 6, 12]
    assert rec["command"] == "series"
    assert rec["inputs"] == {"m": 4, "terms": 13}


def test_verify_exit_codes(capsys):
    code, records = run_cli(capsys, "verify", "--a", "4", "--b", "6",
                            "--c", "12", "--terms", "2000")
    assert code == 0
    assert records[0]["status"] == "verified"
    assert records[0]["terms"] == 2000

    code, records = run_cli(capsys, "verify", "--a", "18", "--b", "24",
                            "--c", "72", "--terms", "100")
    assert code == 1
    assert records[0]["status"] == "refuted"
    assert records[0]["witness"] == 1


def test_euler_jacobi_all_exponents(capsys):
    code, records = run_cli(capsys, "euler-jacobi", "--terms", "500")
    assert code == 0
    assert [r["a"] for r in records] == [1, 2, 3, 4, 6]
    assert all(r["status"] == "verified" for r in records)


def test_partition_table(capsys):
    code, records = run_cli(capsys, "partition", "--terms", "10")
    assert code == 0
    assert records[0]["parity"] == [1, 1, 0, 1, 1, 1, 1, 1, 0, 0]


def test_partition_output_bytes(capsys):
    # p(n) mod 2 by adding one part size at a time, independent of the
    # pentagonal recurrence behind the command
    n_terms = 1000
    parity = [1] + [0] * (n_terms - 1)
    for part in range(1, n_terms):
        for n in range(part, n_terms):
            parity[n] ^= parity[n - part]
    bits = ",".join(map(str, parity))
    assert dispatch(["partition", "--terms", "1000"]) == 0
    assert capsys.readouterr().out == (
        '{"command":"partition","inputs":{"terms":1000},"status":"ok",'
        f'"parity":[{bits}]}}\n')


def test_eta_output_bytes(capsys):
    # Jacobi: (q;q)^3 is odd exactly at the triangular numbers; the exact
    # bytes also show that the support is written as plain JSON ints
    assert dispatch(["eta", "--power", "3", "--terms", "11"]) == 0
    assert capsys.readouterr().out == (
        '{"command":"eta","inputs":{"power":3,"terms":11},"status":"ok",'
        '"support":[0,1,3,6,10]}\n')


def test_bm_subcommand(capsys):
    code, records = run_cli(capsys, "bm", "--a", "6", "--b", "8", "--max", "500")
    assert code == 0 and records[0]["witness"] is None
    code, records = run_cli(capsys, "bm", "--a", "18", "--b", "72", "--max", "100")
    assert code == 1 and records[0]["witness"] == 1


def test_bm_sweep(capsys):
    code, records = run_cli(capsys, "bm", "--max", "1000")
    assert code == 0
    assert [(r["a"], r["b"]) for r in records] == list(
        partition.BM_CONJECTURED_PAIRS + partition.BM_REFUTED_PAIRS)
    assert all(r["inputs"] == {"max": 1000} for r in records)
    assert all(r["status"] == r["expected"] for r in records)
    assert [(r["status"], r["witness"]) for r in records] == (
        [("verified", None)] * 7 + [("refuted", 1)] * 3)


def test_bm_sweep_fails_when_a_pair_departs_from_the_theorem(capsys, monkeypatch):
    bm_first_failure = partition.bm_first_failure

    def failing_at_6_8(a, b, n_max):
        return 1 if (a, b) == (6, 8) else bm_first_failure(a, b, n_max)

    monkeypatch.setattr(partition, "bm_first_failure", failing_at_6_8)
    code, records = run_cli(capsys, "bm", "--max", "1000")
    assert code == 1
    assert records[0]["status"] == "refuted"
    assert records[0]["expected"] == "verified"
    assert len(records) == 10


def test_repcount_subcommand(capsys):
    code, records = run_cli(capsys, "repcount", "--b", "6", "--c", "12", "--k", "4")
    assert code == 0
    assert records[0]["count"] == 2 and records[0]["parity"] == 0


def test_lemma_sols_with_check(capsys):
    code, records = run_cli(capsys, "lemma-sols", "--bp", "1", "--cp", "2",
                            "--target", "33", "--u", "3", "--v", "1")
    assert code == 0
    assert records[0]["solutions"] == [[2, 5], [4, 1]]
    assert records[0]["check"] is True


def test_lemma_p_subcommand(capsys):
    code, records = run_cli(capsys, "lemma-p", "--u", "8", "--v", "3")
    assert code == 0
    assert records[0]["q"] == 5 and records[0]["Q"] == 24
    assert records[0]["certified_primes"][:3] == [5, 29, 53]


def test_weber_find_and_reject(capsys):
    code, records = run_cli(capsys, "weber", "--d", "3", "--s", "5", "--t", "4",
                            "--m", "18", "--bound", "100")
    assert code == 0
    assert (records[0]["p"], records[0]["u"], records[0]["v"]) == (73, 5, 4)

    code, records = run_cli(capsys, "weber", "--reject", "--b", "24",
                            "--c", "72", "--bound", "100")
    assert code == 1
    assert records[0]["status"] == "weber_refuted"
    assert records[0]["p"] == 73
    assert records[0]["failing_pair"] == [9, 7]

    code, records = run_cli(capsys, "weber", "--reject", "--b", "6",
                            "--c", "12", "--bound", "50")
    assert code == 0
    assert records[0]["status"] == "no_certificate"


def test_classify_small(capsys):
    code, records = run_cli(capsys, "classify", "--terms", "20000")
    assert code == 0
    assert all(r["inputs"] == {"terms": 20000} for r in records)
    summary = records[-1]
    assert summary["status"] == "ok"
    assert summary["verified"] == [[4, 6, 12], [6, 8, 24], [8, 12, 24],
                                   [10, 12, 60], [15, 24, 40], [16, 24, 48],
                                   [20, 24, 120], [21, 24, 168]]
    candidates = [r for r in records if r.get("kind") == "candidate"]
    triples = [tuple(r["triple"]) for r in candidates]
    assert triples == sorted(triples)
    family = [r for r in records if r.get("kind") == "family"]
    assert family[0]["consistent"] is True
    assert family[0]["checked_d_up_to"] == classify.FAMILY_MAX_D


def test_brute_small(capsys):
    code, records = run_cli(capsys, "brute", "--bound", "8", "--terms", "500")
    assert code == 0
    assert records[-1]["matches_theorem"] is True
    triples = [tuple(r["triple"]) for r in records if r.get("kind") == "triple"]
    assert triples == [(2, 4, 4), (4, 8, 8)]


def test_out_file(tmp_path, capsys):
    target = tmp_path / "records.jsonl"
    code = dispatch(["series", "--m", "4", "--terms", "13", "--out", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    rec = json.loads(target.read_text())
    assert rec["support"] == [0, 2, 6, 12]


def test_usage_error_exit_code():
    result = subprocess.run(
        [sys.executable, "-m", "theta_parity.cli", "nonsense"],
        capture_output=True, text=True)
    assert result.returncode == 2


# each rejected command line and what its message must name
_REJECTED = {
    ("weber", "--reject", "--b", "5", "--c", "7", "--bound", "3"): "(5, 7)",
    ("series", "--m", "0", "--terms", "5"): "m and n_terms",
    ("series", "--m", "4611686018427387904", "--terms", "2"): "below 2^63",
    ("classify", "--terms", "0"): "n_terms must be positive",
    ("verify", "--a", "0", "--b", "6", "--c", "12", "--terms", "10"):
        "a, b, c must be positive",
    ("weber", "--reject", "--b", "6", "--bound", "3"): "--reject needs --b and --c",
    ("weber", "--bound", "3"): "either --reject --b --c or --d",
    ("lemma-sols", "--bp", "1", "--cp", "2", "--target", "33", "--u", "3"):
        "--u and --v must be given together",
    ("bm", "--a", "6", "--max", "10"): "--a and --b must be given together",
    ("series", "--m", "4", "--terms", "13", "--out", "/missing-dir/x"):
        "/missing-dir/x",
    ("euler-jacobi", "--terms", "0"): "euler-jacobi: n_terms must be positive",
    ("eta", "--terms", "0"): "eta: n_terms must be positive",
}


@pytest.mark.parametrize("argv", [list(argv) for argv in _REJECTED])
def test_rejected_arguments_exit_as_usage_errors(capsys, argv):
    # exit 1 means a refuted claim; an argument the command rejects is a
    # usage error: one stderr line naming it, nothing on stdout
    assert dispatch(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(argv[0] + ": ")
    assert _REJECTED[tuple(argv)] in captured.err


@pytest.mark.parametrize("argv", [
    ["verify", "--a", "4", "--b", "6", "--c", "12", "--terms", "2000"],
    ["classify", "--terms", "2000"],
    ["brute", "--bound", "8", "--terms", "500"],
    ["bm", "--max", "1000"],
])
def test_successful_runs_write_nothing_to_stderr(capsys, argv):
    assert dispatch(argv) == 0
    captured = capsys.readouterr()
    assert captured.out
    assert captured.err == ""


@pytest.mark.parametrize("flag", [["--plain"], ["--weber-bound", "1"],
                                  ["--family-d", "8"], ["--family-terms", "1"]],
                         ids=lambda flag: flag[0])
def test_classify_takes_no_tuning_flags(capsys, flag):
    # the classification runs at the module's fixed search bounds, and
    # every command prints JSON lines only
    with pytest.raises(SystemExit) as exc:
        dispatch(["classify", "--terms", "2000", *flag])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "theta_parity.cli", "series", "--m", "24",
         "--terms", "41"], capture_output=True, text=True)
    assert result.returncode == 0
    rec = json.loads(result.stdout)
    assert rec["support"] == [0, 1, 2, 5, 7, 12, 15, 22, 26, 35, 40]
