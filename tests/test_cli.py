import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import curvesplit
from curvesplit import conjscan
from curvesplit.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_split_flagship(capsys):
    code, out, _ = run_cli(capsys, "split", "--type", "8,3,3,3,3,3,3,3", "--seed", "1")
    assert code == 0
    data = json.loads(out)
    assert (data["a"], data["b"]) == (3, 5)
    assert data["gap"] == 2
    assert data["sigma"] == 12
    assert data["seed"] == 1


def test_split_runs_the_saturation_once(capsys, monkeypatch):
    import curvesplit.cli as cli
    import curvesplit.splitting as splitting
    from curvesplit.exactla import MatFp

    calls = []
    real = splitting.syzygy_matrix

    def counting(phi, k):
        calls.append(k)
        return real(phi, k)

    route = [None]
    rrefs = []
    real_rref = MatFp.rref

    def counting_rref(self):
        rrefs.append(route[0])
        return real_rref(self)

    def entered(name):
        fn = getattr(cli, name)

        def wrapper(phi):
            route[0] = name
            try:
                return fn(phi)
            finally:
                route[0] = None

        return wrapper

    monkeypatch.setattr(splitting, "syzygy_matrix", counting)
    monkeypatch.setattr(MatFp, "rref", counting_rref)
    for name in ("splitting_moving_lines", "splitting_saturation", "min_syzygy"):
        monkeypatch.setattr(cli, name, entered(name))
    code, out, _ = run_cli(capsys, "split", "--type", "8,3,3,3,3,3,3,3")
    assert code == 0
    data = json.loads(out)
    assert data["sigma"] == data["b"] + 8 - 1
    # moving lines at d//2 - 1; saturation (gap 2) at d//2, whose elimination
    # the minimal syzygy reads without eliminating again
    assert calls == [3, 4]
    assert [r for r in rrefs if r is not None] == ["splitting_moving_lines", "splitting_saturation"]


def test_enum_count(capsys):
    code, out, _ = run_cli(capsys, "exc-enum", "--r", "9", "--dmax", "61")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 1054


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["split", "--help"])
    assert exc.value.code == 0


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["split", "--bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "p, message",
    [
        ("199", "modulus 199 must exceed the degree cap 200"),
        ("200", "modulus 200 is not prime"),
        ("2", "modulus must be an odd prime >= 3, got 2"),
        ("3037000507", "modulus 3037000507 too large for int64 arithmetic"),
    ],
)
def test_bad_modulus_is_a_domain_error(capsys, p, message):
    code, out, err = run_cli(capsys, "classify", "--type", "2,1,1,1,1,1", "--p", p)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_unknown_format_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--type", "2,1,1,1,1,1", "--format", "xml"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "invalid choice: 'xml'" in captured.err


def test_resume_without_out_is_a_usage_error(capsys):
    # with no file to resume from, the scan would silently start over
    with pytest.raises(SystemExit) as exc:
        main(["scan-conj9", "--dmax", "8", "--resume"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--resume needs --out" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ("param", "--type", "250,1"),
        ("split", "--type", "250,1"),
        ("scan-conj9", "--dmax", "250"),
        ("fatpoints", "--mults", "1,1", "--k", "250"),
        ("search-conjR", "--type", "250,1", "--damax", "1"),
        ("search-conjR", "--type", "8,3,3,3,3,3,3,3,1,1", "--damax", "250"),
    ],
    ids=lambda argv: " ".join(argv),
)
def test_degree_cap_holds_for_every_command(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == "error: degree 250 exceeds the configured cap 200\n"


def test_list7_check_refuses_members_above_the_degree_cap(capsys, monkeypatch):
    # the largest member degree is 205 at --dmax-param 39 and 200 at 38
    class Built(Exception):
        pass

    def refuse(*args, **kwargs):
        raise Built

    monkeypatch.setattr(conjscan, "parameterize", refuse)
    code, out, err = run_cli(capsys, "list7-check", "--dmax-param", "39")
    assert (code, out, err) == (1, "", "error: degree 205 exceeds the configured cap 200\n")
    with pytest.raises(Built):
        main(["list7-check", "--dmax-param", "38"])


def test_exc_enum_refuses_a_cap_above_the_degree_cap(capsys, monkeypatch):
    import curvesplit.cli as cli

    class Built(Exception):
        pass

    def refuse(*args, **kwargs):
        raise Built

    monkeypatch.setattr(cli, "enum_exceptional", refuse)
    code, out, err = run_cli(capsys, "exc-enum", "--r", "9", "--dmax", "201")
    assert (code, out, err) == (1, "", "error: degree 201 exceeds the configured cap 200\n")
    with pytest.raises(Built):
        main(["exc-enum", "--r", "9", "--dmax", "200"])


@pytest.mark.parametrize(
    "argv, message",
    [
        (("fatpoints", "--mults", "2,1,1", "--k", "7..5"), "degree range '7..5' is empty"),
        (("fatpoints", "--mults", "2,1,1", "--k", "-1"), "degree must be non-negative"),
        (("search-conjR", "--type", "8,3,3,3,3,3,3,3,1,1", "--damax", "-1"), "--damax must be non-negative"),
        (("list7-check", "--dmax-param", "-1"), "--dmax-param must be non-negative"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else "",
)
def test_empty_or_negative_bounds_are_domain_errors(capsys, argv, message):
    # an empty range or a negative bound is an error, never an empty answer
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("x", "cannot parse type 'x'; expected d,m1,...,mr"),
        ("3", "a type needs a degree and at least one multiplicity"),
    ],
)
def test_unparsable_type_is_a_domain_error(capsys, text, message):
    code, out, err = run_cli(capsys, "classify", "--type", text)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_domain_error_exits_one(capsys):
    code, _, err = run_cli(capsys, "split", "--type", "3,1,1")  # fails genus numerics
    assert code == 1
    assert "error" in err


def test_closed_stdout_exits_one_quietly():
    # exc-enum --r 9 --dmax 150 writes about 538 KB, far more than a pipe
    # holds, so a write after the reader closes the pipe always fails
    src = str(Path(curvesplit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    argv = [sys.executable, "-m", "curvesplit.cli", "exc-enum", "--r", "9", "--dmax", "150"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline()
    proc.stdout.close()
    assert proc.wait(timeout=60) == 1
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_byte_identical_reruns(capsys):
    _, out1, _ = run_cli(capsys, "param", "--type", "4,2,2,2,1,1,1,1,1", "--seed", "3")
    _, out2, _ = run_cli(capsys, "param", "--type", "4,2,2,2,1,1,1,1,1", "--seed", "3")
    assert out1 == out2


def test_param_trace_flag(capsys):
    code, out, _ = run_cli(capsys, "param", "--type", "4,2,2,2,1,1,1,1,1", "--seed", "3", "--trace")
    assert code == 0
    data = json.loads(out)
    assert data["trace"], "quartic reduction must include Cremona steps"
    step = data["trace"][0]
    assert len(step["quad_forms"]) == 3 and len(step["quad_forms"][0]) == 6


@pytest.mark.parametrize(
    "cmd, nsteps",
    [
        # the first configuration's point 8 lies on a fundamental line
        ("param --type 8,3,3,3,3,3,3,3,1,1 --seed 1 --p 211", 5),
        # the first configuration's pencil passes through the point of multiplicity 0
        ("param --type 7,4,3,3,3,1,1,0 --seed 8 --p 211", 2),
    ],
)
def test_param_trace_lists_the_steps_of_the_retried_parameterization(capsys, cmd, nsteps):
    from curvesplit.param import random_points

    code, out, err = run_cli(capsys, *cmd.split(), "--trace")
    assert (code, err) == (0, "")
    data = json.loads(out)
    trace = data.pop("trace")
    # without its trace the output is the plain, pinned one
    plain = json.dumps(data) + "\n"
    assert plain == run_cli(capsys, *cmd.split())[1]
    assert hashlib.sha256(plain.encode()).hexdigest() == PINNED_DIGESTS[cmd]
    # and its steps start at the retried points, not at the given ones
    assert len(trace) == nsteps
    before = trace[0]["points_before"]
    assert before != random_points(len(before), data["seed"], data["p"]).coords.tolist()


def test_classify_output(capsys):
    code, out, _ = run_cli(capsys, "classify", "--type", "4,3,1,1,1,1,1,1,1,1")
    data = json.loads(out)
    assert code == 0
    assert data["ascenzi"] is True
    assert data["predicted_split"] == [1, 3]
    assert data["exceptional"] is True
    assert data["semi_adjoint"] == [1, 1, 0, 0, 0, 0, 0, 0, 0, 0]


@pytest.mark.parametrize("text", ["1,2", "2,3"])
def test_classify_predicts_nothing_for_a_point_above_the_degree(capsys, text):
    code, out, _ = run_cli(capsys, "classify", "--type", text)
    assert code == 0
    assert json.loads(out) == {
        "type": [int(v) for v in text.split(",")],
        "ascenzi": False,
        "predicted_split": None,
        "exceptional": False,
        "smooth_rational_numerics": False,
        "semi_adjoint": None,
    }


def test_fatpoints_table(capsys):
    code, out, _ = run_cli(
        capsys, "fatpoints", "--mults", "4,1,1,1,1,1,1,1,1", "--k", "5..6", "--seed", "7"
    )
    data = json.loads(out)
    assert code == 0
    assert data["alpha"] == 5
    assert data["table"][0]["dim_k"] == 3
    assert data["table"][0]["cokernel"] == 2


def test_fatpoints_builds_one_condition_matrix(capsys, monkeypatch):
    # the mu table needs C_7 and alpha needs C_(k0 - 1) = C_4: one RREF of
    # C_7 holds both
    import curvesplit.fatpoints as fatpoints

    degrees = []
    real = fatpoints.conditions_matrix

    def counting(Z, k):
        degrees.append(k)
        return real(Z, k)

    monkeypatch.setattr(fatpoints, "conditions_matrix", counting)
    code, _, _ = run_cli(capsys, "fatpoints", "--mults", "4,1,1,1,1,1,1,1,1", "--k", "4..6", "--seed", "7")
    assert code == 0
    assert degrees == [7]


def test_scan_jsonl_and_resume(tmp_path, capsys):
    out_path = tmp_path / "scan.jsonl"
    code, _, _ = run_cli(capsys, "scan-conj9", "--dmax", "4", "--seed", "5", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    records = [json.loads(l) for l in lines[:-1]]
    summary = json.loads(lines[-1])["summary"]
    assert summary["n_types"] == len(records) == 6
    # resume: partial file with one record recomputes only the rest
    partial = lines[0] + "\n"
    out_path.write_text(partial)
    code, _, _ = run_cli(
        capsys, "scan-conj9", "--dmax", "4", "--seed", "5", "--out", str(out_path), "--resume"
    )
    assert code == 0
    lines2 = out_path.read_text().splitlines()
    assert lines2[:-1] == lines[:-1]
    assert json.loads(lines2[-1])["summary"] == summary


def test_search_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "search-conjR", "--type", "8,3,3,3,3,3,3,3,1,1", "--damax", "4", "--seed", "2"
    )
    data = json.loads(out)
    assert code == 0
    assert data["result"]["min_product"] == 3


def test_table_format(capsys):
    code, out, _ = run_cli(capsys, "classify", "--type", "2,1,1,1,1,1", "--format", "table")
    assert code == 0
    assert "ascenzi" in out and "{" not in out.splitlines()[0]


def test_scan_stdout_is_the_library_scan(capsys):
    from curvesplit.conjscan import scan_conjecture9

    code, out, _ = run_cli(capsys, "scan-conj9", "--dmax", "8")
    assert code == 0
    records, summary = scan_conjecture9(8, seed=1)
    expected = [json.dumps(r.to_json()) for r in records] + [json.dumps({"summary": summary})]
    assert out == "\n".join(expected) + "\n"


def _scan_lines(capsys, out_path, *flags):
    code, _, _ = run_cli(capsys, "scan-conj9", "--dmax", "8", "--out", str(out_path), *flags)
    assert code == 0
    return out_path.read_text().splitlines()


def test_resume_refuses_records_of_another_seed(tmp_path, capsys):
    out_path = tmp_path / "scan.jsonl"
    lines = _scan_lines(capsys, out_path, "--seed", "5")
    out_path.write_text("\n".join(lines[:3]) + "\n")
    code, _, err = run_cli(
        capsys, "scan-conj9", "--dmax", "8", "--seed", "6", "--out", str(out_path), "--resume"
    )
    assert code == 1
    assert err.startswith("error:") and "seed" in err
    # the refused file is left as it was
    assert out_path.read_text().splitlines() == lines[:3]


@pytest.mark.parametrize("first, second", [((), ("--certify",)), (("--certify",), ())])
def test_resume_refuses_records_of_the_other_certify_mode(tmp_path, capsys, first, second):
    out_path = tmp_path / "scan.jsonl"
    lines = _scan_lines(capsys, out_path, *first)
    with_sa = [l for l in lines[:-1] if json.loads(l)["semiadjoint"] is not None]
    assert with_sa
    out_path.write_text(with_sa[0] + "\n")
    code, _, err = run_cli(
        capsys, "scan-conj9", "--dmax", "8", "--out", str(out_path), "--resume", *second
    )
    assert code == 1
    assert err.startswith("error:") and "h1_a" in err


def test_resume_with_matching_certify_reproduces_the_scan(tmp_path, capsys):
    out_path = tmp_path / "scan.jsonl"
    lines = _scan_lines(capsys, out_path, "--certify")
    out_path.write_text("\n".join(lines[:10]) + "\n")
    assert _scan_lines(capsys, out_path, "--certify", "--resume") == lines


# sha256 of the stdout of each command, pinned when the outputs were last
# checked by hand; any change to these bytes is a change of results
PINNED_DIGESTS = {
    "param --type 4,2,2,2,1,1,1,1,1 --seed 3 --trace": "686202bd3caaa1b11f61ec3f20ae9da51c6929eb48a3df93639698a2fd7b2574",
    "param --type 3,2 --seed 1": "7d3c891a42dabcc9f593b508c5298afb92f20b0dedf63037a25bd160c4cadbf6",
    "param --type 10,4,4,4,4,4,4 --seed 2 --trace": "666024fc7cda058e5d8ac8f5365f4c26fe4d0e5ecbc0471773527aa0e9cbad5b",
    "param --type 8,3,3,3,3,3,3,3,1,1 --seed 5 --trace --p 211": "b0216ec19bd9fdba6b5bdce97986521210c4991bf80afb11e9d7fcc553aa752c",
    "split --type 8,3,3,3,3,3,3,3 --seed 1": "d61e55c0df0b875b1347a83e432d3c216322126b01f6fa7cdaf6e04652c31e61",
    "fatpoints --mults 4,1,1,1,1,1,1,1,1 --k 4..6 --seed 7": "790c54c2a3a3321a1e2c6b229991dda2a9bcb146e2e2b8ac97ddd35ff9a707c0",
    "scan-conj9 --dmax 20 --seed 1 --certify": "e14d0ec33fcba83f37243e35a05694960d8f83d2ceb6ed072bfdbd62c767b784",
    "scan-conj9 --dmax 30 --seed 2 --p 211": "56c4b5f5b443c98b86d0fbbc5b7f9989e6ed2a3ea29e5c73f4b9d82af5828a44",
    "list7-check --seed 1": "6c4bd32fa14455b89ccdf722533ff52ea52847f1236647b9db88573370d65330",
    "fatpoints --mults 5,0,0,0,0,0,0,0,0 --k 1..3 --seed 1": "2ecc83cc1e99a7766119ae69f82779033440495d2deccb0aeadfba8856c58393",
    "fatpoints --mults 3,2,2,1,1,1,1,1,1 --k 3..6 --seed 4 --p 211": "21d82bbd60bfc8ca19718c69efea196920009f6bf8bbd39c07e4bbcadf788a70",
    "split --type 20,9,7,7,7,7,7,5,5,5 --seed 2": "40989e37d9a8a67a5229f3115b4c8917b0d387d72e383bd817798f2e53fe971e",
    "split --type 8,3,3,3,3,3,3,3 --seed 5 --p 211": "4feb9a727cde04477a29972a1dd464b83c12f45ea3ed1534a6b9bc9df013e526",
    "param --type 16,8,8,7,5,4,4,4 --seed 3 --trace --p 211": "fef43d9e299737dddee596172894369d8e97d5e90595d577e2906024cc139b47",
    "split --type 18,7,7,7,7,7,7,5 --seed 2": "4e17400ac7f08f2a82b346be54e63046615cd2357e988c4f01b7218ced7e47d3",
    "param --type 8,3,3,3,3,3,3,3,1,1 --seed 5 --trace --p 3037000493": "146f6fead9aa2dffd98cd2bf8d0b0d6c8e68cd3572efc61183c6597850a84595",
    "scan-conj9 --dmax 30 --seed 3 --p 3037000493": "0c165c68c3d1f919329c09dc0e09434c6682f6314dba70dffe1bc66664042cc1",
    "split --type 61,26,21,20,20,19,19,19,19,19 --seed 1 --p 211": "af2ac8c4aacf6f85df1a66eb388ff226e9751f8023ba8bcf237685e02802a70e",
    "param --type 61,26,21,20,20,19,19,19,19,19 --seed 2 --trace --p 3037000493": "630fff04b0cb483b70dafc16e0a607bb89703f5a3c37ce7939960d82e6bf49be",
    "param --type 2,1,1 --seed 1 --trace": "e2738ff74941e29fb2c9cd4e7768e4a59bdc923fe4b908cde766e4e1e21602b1",
    "param --type 5,4,1 --seed 1": "266863bb9429e9edde1b94d4b371677570e6e68b8e7bf59752526388f8330eea",
    # the first attempt's pencil passes through the point of multiplicity 0
    "param --type 7,4,3,3,3,1,1,0 --seed 8 --p 211": "09fb365956cee55b2fc93367355ab25eca212fdcd9ce68eab4479b17ea6beba1",
    # the first attempt's point 8 lies on a fundamental line
    "param --type 8,3,3,3,3,3,3,3,1,1 --seed 1 --p 211": "d779a1118f1be191506ef6589c6c2c108eeb427b31337c7d1af4fca9c89b942e",
    "exc-enum --r 9 --dmax 61": "9b23d0f9ece765668793b3ac4d807d93b8ff58a667a7516737ebd93fdb5d83c1",
    "exc-enum --r 8": "9c86460107487e3b43bebb34a0d648fe72dfd73cf59707fcfbaa45daa0040a90",
    "exc-enum --r 7": "f02cb083098e6d525f96d96274c45d514d0db228d5a7815fc2cc40db0b07fc93",
    # gap 4: saturation eliminates at K = 8 and 14, the minimal syzygy at K = 8
    "split --type 16,6,6,6,6,6,6,6 --seed 3": "15623fb9a9c184e00ccc099159e93bc64774f81c46b7eb82a3455fd2d263e1da",
    # d = 2: saturation eliminates at K = 0, the minimal syzygy at K = 1
    "split --type 2,1,1,1,1,1 --seed 3": "96f5459572894eb008861f3bf85a758745d8ef94205d60e90dda5cfed7e5b414",
    "split --type 3,2,1,1,1,1,1,1 --seed 3 --p 1009": "0167f97ff0a4ba3a61c8118db954fb25b652c9f6a44ea4928e0b3b178520ac01",
    # the largest multiplicity is tied, and not at the first point
    "fatpoints --mults 1,3,2,3,1,1,1,1,1 --k 2..6 --seed 3": "51da3f3c08c4a64379daa5da40bb4833175456ec4cbe99d149bb75e1e41b64aa",
    # points of multiplicity 0 come first
    "fatpoints --mults 0,0,4,1,1 --k 1..4 --seed 2 --p 1009": "0b5d3467031233d0429d1693f1d2b5ba260bc59804f1ac226c82242bc2fa3800",
    # the largest multiplicity exceeds the eliminated degree K = 5
    "fatpoints --mults 1,1,6,1 --k 1..4 --seed 5 --p 211": "a5d68739d8405e2d309d3f4309a1d9385be32d628fd68f2a4a67fa33e901c2b6",
}


def test_outputs_match_pinned_digests(capsys):
    got = {}
    for cmd in PINNED_DIGESTS:
        code, out, _ = run_cli(capsys, *cmd.split())
        assert code == 0, cmd
        got[cmd] = hashlib.sha256(out.encode()).hexdigest()
    assert got == PINNED_DIGESTS
