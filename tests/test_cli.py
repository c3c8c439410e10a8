import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from quditswap import cli
from quditswap.cli import main

from probes import child_env

SWAP_QC = "dim 3\nwires 2\nCXT 2 1\nCXT 1 2\nCXT 2 1\n"
DECOMP_QC = "dim 4\nwires 2\nQFT 2\nCZ 1 2\nQFT 2\n"


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_pass(capsys):
    code, out, _ = run(["verify", "--d-min", "2", "--d-max", "3"], capsys)
    assert code == 0
    assert "PASS" in out
    assert "FAIL" not in out
    assert out.strip().endswith("identities passed")


def test_verify_bad_range(capsys):
    code, _, err = run(["verify", "--d-min", "1", "--d-max", "4"], capsys)
    assert code == 2
    assert "d-min" in err


def test_verify_json(capsys):
    code, out, _ = run(["verify", "--d-min", "3", "--d-max", "3", "--json"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    records = [json.loads(line) for line in lines]
    assert all(r["d"] == 3 for r in records[:-1])
    assert all(r["passed"] for r in records[:-1])
    assert records[-1]["failures"] == 0


def test_verify_tolerance_override_can_fail(capsys):
    code, out, _ = run(
        ["verify", "--d-min", "3", "--d-max", "3", "--tolerance", "1e-30"], capsys
    )
    assert code == 1
    assert "FAIL" in out


def test_matrix_cxt_d2(capsys):
    code, out, _ = run(["matrix", "--gate", "CXT", "--d", "2"], capsys)
    assert code == 0
    rows = [
        [complex(float(p.split(",")[0]), float(p.split(",")[1])) for p in line.split(";")]
        for line in out.strip().split("\n")
    ]
    m = np.array(rows)
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[1, 1] = expected[3, 2] = expected[2, 3] = 1
    assert np.array_equal(m.real, expected)
    assert np.all(m.imag == 0)


def test_matrix_cz_d2(capsys):
    code, out, _ = run(["matrix", "--gate", "CZ", "--d", "2", "--format", "json"], capsys)
    assert code == 0
    m = np.array([[complex(re, im) for re, im in row] for row in json.loads(out)])
    assert np.allclose(m, np.diag([1, 1, 1, -1]))


def test_matrix_qft_d3(capsys):
    code, out, _ = run(["matrix", "--gate", "QFT", "--d", "3", "--format", "json"], capsys)
    assert code == 0
    m = np.array([[complex(re, im) for re, im in row] for row in json.loads(out)])
    for k in range(3):
        for x in range(3):
            want = np.exp(2j * np.pi * x * k / 3) / np.sqrt(3)
            assert abs(m[k, x] - want) <= 1e-15


def test_matrix_round_trips_through_csv(capsys):
    from quditswap.gates import qft

    code, out, _ = run(["matrix", "--gate", "QFT", "--d", "5"], capsys)
    assert code == 0
    rows = [
        [complex(float(p.split(",")[0]), float(p.split(",")[1])) for p in line.split(";")]
        for line in out.strip().split("\n")
    ]
    assert np.array_equal(np.array(rows), qft(5).entries)


def test_matrix_unknown_gate(capsys):
    code, _, err = run(["matrix", "--gate", "NOPE", "--d", "3"], capsys)
    assert code == 2
    assert "unknown gate" in err


def test_matrix_bad_d(capsys):
    code, _, err = run(["matrix", "--gate", "QFT", "--d", "1"], capsys)
    assert code == 2
    assert "d must be in 2..64, got 1" in err
    code, _, err = run(["matrix", "--gate", "QFT", "--d", "70"], capsys)
    assert code == 2
    assert "d must be in 2..64, got 70" in err


def test_simulate_swap_label(tmp_path, capsys):
    f = tmp_path / "swap.qc"
    f.write_text(SWAP_QC)
    code, out, _ = run(["simulate", "--circuit", str(f), "--input", "1,2"], capsys)
    assert code == 0
    assert out.strip() == "2,1"


def test_simulate_decomposition_label(tmp_path, capsys):
    # dense circuit on a basis input: amplitudes are printed, and the
    # dominant one sits at the negated-sum target
    f = tmp_path / "decomp.qc"
    f.write_text(DECOMP_QC)
    code, out, _ = run(
        ["simulate", "--circuit", str(f), "--input", "1,1", "--json"], capsys
    )
    assert code == 0
    amps = json.loads(out)["amplitudes"]
    best = max(amps, key=lambda e: e["re"] ** 2 + e["im"] ** 2)
    assert best["index"] == 1 * 4 + 2  # (1, 2): -1-1 mod 4 = 2


def test_simulate_state_file(tmp_path, capsys):
    f = tmp_path / "swap.qc"
    f.write_text(SWAP_QC)
    state = tmp_path / "state.txt"
    amps = np.zeros(9)
    amps[1 * 3 + 2] = 1.0
    state.write_text("\n".join(f"{a} 0.0" for a in amps) + "\n")
    code, out, _ = run(
        ["simulate", "--circuit", str(f), "--state", str(state), "--json"], capsys
    )
    assert code == 0
    entries = json.loads(out)["amplitudes"]
    assert entries == [{"index": 2 * 3 + 1, "re": 1.0, "im": 0.0}]


def test_simulate_malformed_circuit(tmp_path, capsys):
    f = tmp_path / "bad.qc"
    f.write_text("dim 3\nwires 2\nCXT 1\n")
    code, _, err = run(["simulate", "--circuit", str(f), "--input", "0,0"], capsys)
    assert code == 2
    assert "line 3" in err


def test_simulate_requires_one_input(tmp_path, capsys):
    f = tmp_path / "swap.qc"
    f.write_text(SWAP_QC)
    code, _, _ = run(["simulate", "--circuit", str(f)], capsys)
    assert code == 2


def test_parse_canonicalizes(tmp_path, capsys):
    f = tmp_path / "c.qc"
    f.write_text("# comment\ndim  3\n\nwires 2\nCXT  2   1 # inline\n")
    code, out, _ = run(["parse", "--circuit", str(f)], capsys)
    assert code == 0
    assert out == "dim 3\nwires 2\nCXT 2 1\n"


def test_parse_fig3_transcription_is_fixed_point(tmp_path, capsys):
    f = tmp_path / "swap.qc"
    f.write_text(SWAP_QC)
    code, out, _ = run(["parse", "--circuit", str(f)], capsys)
    assert code == 0
    assert out == SWAP_QC


def test_parse_empty_file(tmp_path, capsys):
    f = tmp_path / "empty.qc"
    f.write_text("")
    code, _, err = run(["parse", "--circuit", str(f)], capsys)
    assert code == 2
    assert "missing" in err


@pytest.mark.parametrize("path", ["/nonexistent.qc", "a\x00b"], ids=["missing", "nul"])
@pytest.mark.parametrize("command", [["parse"], ["simulate", "--input", "0"]],
                         ids=["parse", "simulate"])
def test_parse_missing_file(command, path, capsys):
    code, out, err = run([command[0], "--circuit", path, *command[1:]], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


_PIPE_GONE = "error: [Errno 32] Broken pipe\n"


# verify's output fits stdout's buffer, so only the flush at the end meets the
# gone reader; a failed check whose output cannot be written is an output error
@pytest.mark.parametrize("argv,close_stdout,want_code,want_err", [
    (["matrix", "--gate", "QFT", "--d", "64"], True, 2, _PIPE_GONE),
    (["verify", "--d-min", "2", "--d-max", "16"], True, 2, _PIPE_GONE),
    (["verify", "--d-min", "2", "--d-max", "2"], True, 2, _PIPE_GONE),
    (["verify", "--d-min", "2", "--d-max", "2", "--tolerance", "0"], True, 2, _PIPE_GONE),
    (["verify", "--d-min", "2", "--d-max", "2", "--tolerance", "0"], False, 1, ""),
], ids=["matrix-reader-gone", "verify-reader-gone", "verify-short-reader-gone",
        "verify-fails-reader-gone", "verify-fails"])
def test_exit_code_reaches_the_shell(argv, close_stdout, want_code, want_err):
    # stdout buffered, as in a shell: PYTHONUNBUFFERED would write each line at once
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen([sys.executable, "-m", "quditswap.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if close_stdout:  # the reader is gone before the first write
        proc.stdout.close()
        err, out = proc.stderr.read(), ""
        proc.wait(timeout=60)
    else:
        out, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (want_code, want_err)
    assert want_code != 1 or "FAIL" in out


class _GoneReader(io.StringIO):
    """A captured stdout, without a file descriptor, whose reader has gone."""

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


def test_gone_reader_of_a_captured_stdout_exits_2(capsys):
    # the flush in main meets the gone reader; stdout has no fileno to point elsewhere
    with contextlib.redirect_stdout(_GoneReader()):
        code = main(["verify", "--d-min", "2", "--d-max", "2"])
    assert (code, capsys.readouterr().err) == (2, _PIPE_GONE)


# the child caps its own address space at its size after the import plus a
# headroom, so the cap holds in that child alone; unless told "cold", one small
# product first maps OpenBLAS's buffer (32 MiB of address space), so the
# headroom is the arrays'
_CAPPED_MAIN = """
import resource, sys
import numpy as np
from quditswap.cli import main
if sys.argv[1] != "cold":
    np.ones((2, 2), complex) @ np.ones((2, 8), complex)
with open("/proc/self/status") as fh:
    size = next(int(line.split()[1]) for line in fh if line.startswith("VmSize:")) * 1024
resource.setrlimit(resource.RLIMIT_AS, (size + int(sys.argv[2]), resource.RLIM_INFINITY))
sys.exit(main(sys.argv[3:]))
"""


def _capped_simulate(tmp_path, n, warm="warm", headroom=24 * 2**20):
    """A fresh ``simulate`` of QFT 1; CX 1 2 on 2^n amplitudes from |0...0>, its address space
    capped at its size after the import, and OpenBLAS's buffer unless ``warm`` is "cold",
    plus ``headroom``."""
    qc = tmp_path / "qft.qc"
    qc.write_text(f"dim 2\nwires {n}\nQFT 1\nCX 1 2\n", encoding="utf-8")
    argv = ["simulate", "--circuit", str(qc), "--input", ",".join("0" * n)]
    return subprocess.run([sys.executable, "-c", _CAPPED_MAIN, warm, str(headroom), *argv],
                          env=child_env(), capture_output=True, text=True, timeout=60)


def test_memory_exhaustion_is_an_error_line_and_exit_2(tmp_path):
    # 2^21 amplitudes take 32 MiB: the basis state itself does not fit the headroom
    proc = _capped_simulate(tmp_path, 21)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: Unable to allocate") and proc.stderr.count("\n") == 1


def test_openblas_buffer_is_mapped_before_the_register(tmp_path):
    # unwarmed, with 48 MiB of headroom: a 32 MiB register would fit, and then
    # OpenBLAS could not map its 32 MiB buffer at the first product and would
    # end the process with exit 1; mapped first, the register does not fit
    proc = _capped_simulate(tmp_path, 21, "cold", 48 * 2**20)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: Unable to allocate") and proc.stderr.count("\n") == 1


def test_a_dense_run_fits_its_one_register_array_and_slab_buffers(tmp_path):
    # 2^20 amplitudes take 16 MiB: the state and the kernel's slab buffers fit
    # the 24 MiB headroom, where a second array of the register's size would not
    proc = _capped_simulate(tmp_path, 20)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "0 0.70710678118654746 0\n786432 0.70710678118654746 0\n"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["verify"])  # missing required flags
    assert exc.value.code == 2


def test_simulate_over_budget_register_is_usage_error(tmp_path, capsys):
    # 100^4 amplitudes exceed the state budget; rejected before allocation
    f = tmp_path / "big.qc"
    f.write_text("dim 100\nwires 4\nX 1\n")
    code, out, err = run(["simulate", "--circuit", str(f), "--input", "0,0,0,0"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "budget" in err


def test_simulate_register_wider_than_unitary_budget(tmp_path, capsys):
    # 2^13 amplitudes are within the state budget, though no 2^13 x 2^13
    # unitary is allowed
    f = tmp_path / "wide.qc"
    f.write_text("dim 2\nwires 13\nX 1\nCX 1 2\n")
    label = "1," + ",".join(["0"] * 12)
    code, out, err = run(["simulate", "--circuit", str(f), "--input", label], capsys)
    assert code == 0, err
    assert out.strip() == "1,1," + ",".join(["0"] * 11)


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_verify_rejects_bad_tolerance(tol, capsys):
    code, out, err = run(
        ["verify", "--d-min", "2", "--d-max", "2", "--tolerance", tol], capsys
    )
    assert code == 2
    assert out == ""
    assert "--tolerance" in err


def test_verify_reports_a_negative_zero_tolerance_as_zero(capsys):
    args = ["verify", "--d-min", "2", "--d-max", "2", "--tolerance", "-0.0"]
    code, out, _ = run(args + ["--json"], capsys)
    assert code == 1
    assert {json.dumps(json.loads(line)["tolerance"]) for line in out.splitlines()[:-1]} == {"0.0"}
    code, out, _ = run(args, capsys)
    assert code == 1
    assert "tol=0.0e+00" in out and "-0.0" not in out


def test_simulate_huge_register_names_d_n_without_printing_it(tmp_path, capsys):
    # 3^20000 has 9543 digits, more than int-to-str conversion allows
    f = tmp_path / "huge.qc"
    f.write_text("dim 3\nwires 20000\nX 1\n")
    code, out, err = run(["simulate", "--circuit", str(f), "--input", "0"], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: an array of 3^20000 entries exceeds budget 16777216\n"
    assert len(err) < 200


def test_simulate_huge_register_rejected_within_a_second(tmp_path, capsys):
    f = tmp_path / "huger.qc"
    f.write_text("dim 3\nwires 30000000\nX 1\n")
    start = time.perf_counter()
    code, _, err = run(["simulate", "--circuit", str(f), "--input", "0"], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and "exceeds budget" in err


def test_simulate_oversized_qft_is_usage_error(tmp_path, capsys):
    # 5e6 amplitudes fit the state budget; the 5e6 x 5e6 QFT does not
    f = tmp_path / "qft.qc"
    f.write_text("dim 5000000\nwires 1\nQFT 1\n")
    code, out, err = run(["simulate", "--circuit", str(f), "--input", "0"], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: an array of 5000000^2 entries exceeds budget 16777216\n"


def test_verify_seed_option_is_a_usage_error(capsys):
    # no check samples, so verify takes no --seed
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--d-min", "2", "--d-max", "2", "--seed", "7"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "--seed" in out.err


@pytest.mark.parametrize("label,digit", [("5,0", 5), ("-1,0", -1)], ids=["5,0", "-1,0"])
def test_simulate_rejects_out_of_range_digit(label, digit, tmp_path, capsys):
    f = tmp_path / "swap.qc"
    f.write_text(SWAP_QC)
    code, out, err = run(["simulate", "--circuit", str(f), f"--input={label}"], capsys)
    assert code == 2
    assert out == ""
    assert f"digit {digit} out of range for d=3" in err


def test_simulate_rejects_out_of_range_digit_on_a_dense_circuit(tmp_path, capsys):
    # a dense circuit runs a state built from the label, a table circuit
    # follows the label itself: both check its digits the same way
    f = tmp_path / "decomp.qc"
    f.write_text(DECOMP_QC)
    code, out, err = run(["simulate", "--circuit", str(f), "--input", "4,0"], capsys)
    assert code == 2
    assert out == ""
    assert "digit 4 out of range for d=4" in err


NOT_UTF8_QC = b"dim 3\nwires 2\nCX 1 2 \xff\n"


def test_parse_non_utf8_circuit_is_usage_error(tmp_path, capsys):
    f = tmp_path / "bad.qc"
    f.write_bytes(NOT_UTF8_QC)
    code, out, err = run(["parse", "--circuit", str(f)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "utf-8" in err


def test_simulate_non_utf8_circuit_is_usage_error(tmp_path, capsys):
    f = tmp_path / "bad.qc"
    f.write_bytes(NOT_UTF8_QC)
    code, out, err = run(["simulate", "--circuit", str(f), "--input", "0,0"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "utf-8" in err


def test_simulate_non_utf8_state_is_usage_error(tmp_path, capsys):
    qc, state = tmp_path / "id.qc", tmp_path / "bad.txt"
    qc.write_text("dim 2\nwires 1\nID 1\n")
    state.write_bytes(b"1 0\n\xff 0\n")
    code, out, err = run(["simulate", "--circuit", str(qc), "--state", str(state)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "utf-8" in err


def test_parser_is_built_once_and_keeps_no_flag(tmp_path, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    qc, state = tmp_path / "swap.qc", tmp_path / "state.txt"
    qc.write_text(SWAP_QC)
    state.write_text("".join("0 0\n" if i != 5 else "1 0\n" for i in range(9)))
    sim = ["simulate", "--circuit", str(qc), "--state", str(state)]

    code, out, _ = run([*sim, "--json"], capsys)
    assert code == 0
    assert json.loads(out) == {"amplitudes": [{"index": 7, "re": 1.0, "im": 0.0}]}
    first = len(built)
    assert first > 0

    code, out, _ = run(sim, capsys)
    assert (code, out) == (0, "7 1 0\n")  # text: --json did not carry over

    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--circuit", str(qc), "--bogus"])
    assert exc.value.code == 2
    code, out, err = run([*sim, "--input", "0,0"], capsys)
    assert (code, out) == (2, "")
    assert "exactly one of --input / --state" in err
    assert len(built) == first
    cli.build_parser.cache_clear()
