from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import time
import tracemalloc

import pytest

from conftest import CORPUS_DIR, fixture_path
from sprw import cli
from sprw.compile import compile_program
from sprw.errors import CompileError
from sprw.expand import expand
from sprw.parser import parse_program


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "sprw.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_run_scenario6_single_record():
    r = run_cli(
        "run",
        "--patterns", str(fixture_path("scenario6.sprw")),
        "--trace", str(fixture_path("scenario6.trace.jsonl")),
    )
    assert r.returncode == 0, r.stderr
    records = [json.loads(line) for line in r.stdout.splitlines()]
    assert len(records) == 1
    assert records[0]["pattern"] == "electricity_alert"
    assert records[0]["intermediates"] == {"total": 210}


def test_run_empty_trace(tmp_path):
    trace = tmp_path / "empty.jsonl"
    trace.write_text("")
    r = run_cli("run", "--patterns", str(fixture_path("scenario6.sprw")), "--trace", str(trace))
    assert r.returncode == 0
    assert r.stdout == ""


def test_run_scenario5_two_records():
    r = run_cli(
        "run",
        "--patterns", str(fixture_path("scenario5.sprw")),
        "--trace", str(fixture_path("scenario5.trace.jsonl")),
    )
    assert r.returncode == 0
    records = [json.loads(line) for line in r.stdout.splitlines()]
    assert [rec["reaction"] for rec in records] == [
        "activate_home_scene",
        "activate_leave_scene",
    ]


def test_run_output_is_byte_deterministic(tmp_path):
    out1 = tmp_path / "a.jsonl"
    out2 = tmp_path / "b.jsonl"
    for out in (out1, out2):
        r = run_cli(
            "run",
            "--patterns", str(fixture_path("scenario7.sprw")),
            "--trace", str(fixture_path("scenario7.trace.jsonl")),
            "--out", str(out),
        )
        assert r.returncode == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_run_parse_error_exit_2(tmp_path):
    bad = tmp_path / "bad.sprw"
    bad.write_text("pattern p as\n")
    r = run_cli("run", "--patterns", str(bad), "--trace", str(fixture_path("scenario6.trace.jsonl")))
    assert r.returncode == 2
    assert "error" in r.stderr


def test_oversized_integers_exit_2(tmp_path):
    # past Python's int-string conversion limit, in a pattern and in a trace
    huge = "9" * 5000
    bad = tmp_path / "bad.sprw"
    bad.write_text(f"pattern p as {{:a, x}}[count: {huge}]\n")
    r = run_cli("check", "--patterns", str(bad))
    assert (r.returncode, r.stderr) == (2, "error: 1:29: integer literal too large\n")
    good = tmp_path / "p.sprw"
    good.write_text("pattern p as {:a, x}\n")
    trace = tmp_path / "t.jsonl"
    trace.write_text(f'{{"ts": 0, "type": ":a", "attrs": [{huge}]}}\n')
    for patterns in (bad, good):
        r = run_cli("run", "--patterns", str(patterns), "--trace", str(trace))
        assert r.returncode == 2 and r.stdout == ""
    assert r.stderr == "error: line 1: invalid JSON: integer has too many digits\n"


def test_run_diagnostics_exit_3(tmp_path):
    pats = tmp_path / "diag.sprw"
    pats.write_text("pattern p as {:a, x} when x > :oops\n")
    trace = tmp_path / "t.jsonl"
    trace.write_text('{"ts": 0, "type": ":a", "attrs": [1]}\n')
    r = run_cli("run", "--patterns", str(pats), "--trace", str(trace))
    assert r.returncode == 3
    assert "TypeMismatch" in r.stderr


def test_int_past_float_range_compares_with_a_float(tmp_path):
    pats = tmp_path / "p.sprw"
    pats.write_text("pattern p as {:a, x} when x == 1.5\npattern q as {:a, x} when x != 1.5\n")
    trace = tmp_path / "t.jsonl"
    huge = "9" * 400  # fits no double
    trace.write_text(f'{{"ts": 0, "type": ":a", "attrs": [{huge}]}}\n')
    r = run_cli("run", "--patterns", str(pats), "--trace", str(trace))
    assert r.returncode == 0, r.stderr
    assert r.stdout == ('{"at":0,"pattern":"q","reaction":null,"messageIds":[1],'
                        f'"bindings":{{"x":{huge}}},"intermediates":{{}}}}\n')


@pytest.mark.parametrize("value", [
    "7" * 4000,  # the product has 8,000 digits: past record_line's limit
    "1e200",  # the product is inf, which JSON cannot hold
], ids=["big-int", "inf"])
def test_arithmetic_out_of_range_exit_3(tmp_path, value):
    pats = tmp_path / "fold.sprw"
    pats.write_text("pattern p as {:a, x}[count: 2] |> fold(1, fn({_, v}, acc) -> acc * v end)"
                    " |> bind(t) when t > 0\n")
    trace = tmp_path / "t.jsonl"
    trace.write_text(f'{{"ts": 0, "type": ":a", "attrs": [{value}]}}\n'
                     f'{{"ts": 1, "type": ":a", "attrs": [{value}]}}\n')
    r = run_cli("run", "--patterns", str(pats), "--trace", str(trace))
    assert (r.returncode, r.stdout) == (3, "")
    assert r.stderr.splitlines() == [
        "warning: messages of type :a are retained until consumed",
        "diagnostic: OutOfRange in p at 1: OutOfRange: "
        "* gives no finite float or int of at most 4300 digits",
    ]


@pytest.mark.parametrize("opening", ["(", "not "])
def test_deeply_nested_guard_exit_2(tmp_path, opening):
    deep = tmp_path / "deep.sprw"
    closing = ")" if opening == "(" else ""
    deep.write_text(f"pattern p as {{:a, x}} when {opening * 2000}x > 1{closing * 2000}\n")
    for args in (("run", "--trace", str(fixture_path("scenario6.trace.jsonl"))), ("check",)):
        r = run_cli(args[0], "--patterns", str(deep), *args[1:])
        assert r.returncode == 2, r.stderr
        assert "nested more than 100 deep" in r.stderr
        assert "Traceback" not in r.stderr


def test_guard_too_deep_to_compile_exit_2(tmp_path):
    # a flat chain parses without nesting, but its left-nested tree is
    # deeper than the expression compiler can recurse
    deep = tmp_path / "chain.sprw"
    deep.write_text("pattern p as {:a, x} when " + " and ".join(["x > 1"] * 3000) + "\n")
    for args in (("run", "--trace", str(fixture_path("scenario6.trace.jsonl"))), ("check",)):
        r = run_cli(args[0], "--patterns", str(deep), *args[1:])
        assert r.returncode == 2, r.stderr
        assert "ExpressionTooDeep" in r.stderr
        assert "Traceback" not in r.stderr


def test_dnf_too_large_fails_fast_exit_2(tmp_path):
    # each ri doubles the alternatives of `big`: 2**20 of them would exhaust
    # memory, so the size is counted before the product is built
    refs = [f"pattern r{i} as {{:a{i}, x}} or {{:b{i}, x}}" for i in range(20)]
    source = "\n".join(refs) + "\npattern big as " + " and ".join(f"r{i}" for i in range(20)) + "\n"
    program = expand(parse_program(source))
    started = time.perf_counter()
    with pytest.raises(CompileError, match="DnfTooLarge"):
        compile_program(program)
    assert time.perf_counter() - started < 0.1
    chain = tmp_path / "chain.sprw"
    chain.write_text(source)
    r = run_cli("check", "--patterns", str(chain))
    assert r.returncode == 2
    assert "DnfTooLarge: pattern 'big' has more than 1024 alternatives" in r.stderr
    assert "Traceback" not in r.stderr


def test_trace_regression_exit_2(tmp_path):
    trace = tmp_path / "bad.jsonl"
    trace.write_text(
        '{"ts": 100, "type": ":a", "attrs": [1]}\n{"ts": 50, "type": ":a", "attrs": [1]}\n'
    )
    r = run_cli("run", "--patterns", str(fixture_path("scenario6.sprw")), "--trace", str(trace))
    assert r.returncode == 2
    assert "timestamp regression at line 2" in r.stderr


def test_trace_attrs_not_a_list_exit_2(tmp_path):
    trace = tmp_path / "bad.jsonl"
    trace.write_text('{"ts": 1, "type": ":a", "attrs": [1]}\n{"ts": 2, "type": ":a", "attrs": 5}\n')
    r = run_cli("run", "--patterns", str(fixture_path("scenario6.sprw")), "--trace", str(trace))
    assert r.returncode == 2
    assert "line 2: 'attrs' must be a list" in r.stderr
    assert "Traceback" not in r.stderr


def test_run_bad_trace_writes_no_record(tmp_path):
    # the first two lines each fire `p`; a trace that fails to decode still
    # fails before any record is written or the --out file is created
    patterns = tmp_path / "p.sprw"
    patterns.write_text("pattern p as {:a, x}\n")
    trace = tmp_path / "t.jsonl"
    trace.write_text('{"ts": 0, "type": ":a", "attrs": [1]}\n'
                     '{"ts": 1, "type": ":a", "attrs": [2]}\n'
                     '{"ts": 2, "type": ":a", "attrs": [3\n')
    out = tmp_path / "out.jsonl"
    for extra in ((), ("--out", str(out))):
        r = run_cli("run", "--patterns", str(patterns), "--trace", str(trace), *extra)
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr == "error: line 3: invalid JSON: Expecting ',' delimiter\n"
    assert not out.exists()


UNREADABLE = {
    "missing": "No such file or directory",
    "directory": "Is a directory",
    "not UTF-8": "'utf-8' codec can't decode byte 0xff in position 58: invalid start byte",
}


def unreadable_file(tmp_path, kind):
    if kind == "missing":
        return tmp_path / "missing"
    if kind == "directory":
        return tmp_path
    path = tmp_path / "latin1"
    path.write_bytes(b'{"ts": 0, "type": ":a", "attrs": [1]}\n{"ts": 1, "type": ":\xff", "attrs": []}\n')
    return path


@pytest.mark.parametrize("kind", UNREADABLE)
@pytest.mark.parametrize("command,option", [
    ("run", "--patterns"), ("run", "--trace"), ("check", "--patterns"),
    ("oracle", "--patterns"), ("oracle", "--trace"),
])
def test_unreadable_input_exit_2(tmp_path, capsys, command, option, kind):
    path = unreadable_file(tmp_path, kind)
    files = {"--patterns": str(fixture_path("scenario6.sprw")),
             "--trace": str(fixture_path("scenario6.trace.jsonl")), option: str(path)}
    if command == "check":
        del files["--trace"]
    assert cli.main([command, *(arg for item in files.items() for arg in item)]) == 2
    assert capsys.readouterr() == ("", f"error: cannot read {path}: {UNREADABLE[kind]}\n")


def test_run_unreadable_trace_writes_no_record(tmp_path, capsys):
    # the trace's first line fires `p`; its second is not UTF-8
    patterns = tmp_path / "p.sprw"
    patterns.write_text("pattern p as {:a, x}\n")
    trace = unreadable_file(tmp_path, "not UTF-8")
    out = tmp_path / "out.jsonl"
    for extra in ((), ("--out", str(out))):
        assert cli.main(["run", "--patterns", str(patterns), "--trace", str(trace), *extra]) == 2
        assert capsys.readouterr() == ("", f"error: cannot read {trace}: {UNREADABLE['not UTF-8']}\n")
    assert not out.exists()


@pytest.mark.parametrize("where,reason", [
    ("directory", "Is a directory"), ("missing/out.jsonl", "No such file or directory"),
])
def test_run_unwritable_out_exit_2(tmp_path, capsys, where, reason):
    (tmp_path / "directory").mkdir()
    out = tmp_path / where
    code = cli.main(["run", "--patterns", str(fixture_path("scenario6.sprw")),
                     "--trace", str(fixture_path("scenario6.trace.jsonl")), "--out", str(out)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.endswith(f"error: cannot write {out}: {reason}\n")


@pytest.mark.parametrize("option", ["--trace", "--patterns"])
@pytest.mark.parametrize("linked", [False, True])
def test_run_refuses_an_out_that_is_an_input(tmp_path, capsys, option, linked):
    # writing the records over an input would empty it before it is read;
    # a hard link names the same file by another path
    files = {"--patterns": tmp_path / "p.sprw", "--trace": tmp_path / "t.jsonl"}
    files["--patterns"].write_text("pattern p as {:a, x}\n")
    files["--trace"].write_text('{"ts": 0, "type": ":a", "attrs": [1]}\n'
                                '{"ts": 1, "type": ":a", "attrs": [2]}\n')
    before = {name: path.read_bytes() for name, path in files.items()}
    out = files[option]
    if linked:
        out = tmp_path / "link"
        os.link(files[option], out)
    code = cli.main(["run", *(str(arg) for item in files.items() for arg in item),
                     "--out", str(out)])
    assert (code, capsys.readouterr()) == (2, ("", f"error: --out {out} is the {option} file\n"))
    assert {name: path.read_bytes() for name, path in files.items()} == before


@pytest.mark.parametrize("text,ms", [
    ("7", 7), (" 7 ", 7), ("0", 0), ("{1, :hours}", 3_600_000), ("{2,:mins}", 120_000), ("٣", 3),
])
def test_lifetime_accepted(text, ms):
    assert cli.parse_lifetime(text) == ms


@pytest.mark.parametrize("text", [
    "²", "{², :secs}", pytest.param("9" * 5000, id="5000 nines"), "-5", "{0, :secs}", "{2, mins}",
    "{1, :hours} x",
])
def test_lifetime_rejected_exit_2(capsys, text):
    # a lifetime is read as the pattern language reads an integer or a duration
    code = cli.main(["run", "--patterns", str(fixture_path("scenario6.sprw")),
                     "--trace", str(fixture_path("scenario6.trace.jsonl")), "--lifetime", text])
    assert (code, capsys.readouterr()) == (
        2, ("", f"error: cannot parse lifetime {text.strip()!r} (use ms or '{{2, :mins}}')\n"))


def test_run_stderr_order_unrouted_retention_diagnostics(tmp_path):
    patterns = tmp_path / "p.sprw"
    patterns.write_text("pattern p as {:a, x} when x > :oops\n")
    trace = tmp_path / "t.jsonl"
    trace.write_text('{"ts": 0, "type": ":z", "attrs": [1]}\n'
                     '{"ts": 5, "type": ":a", "attrs": [1]}\n'
                     '{"ts": 7, "type": ":y"}\n')
    r = run_cli("run", "--patterns", str(patterns), "--trace", str(trace))
    assert r.returncode == 3
    assert r.stdout == ""
    assert r.stderr == (
        "warning: no pattern references message type :z\n"
        "warning: no pattern references message type :y\n"
        "warning: messages of type :a are retained until consumed\n"
        "diagnostic: TypeMismatch in p at 5: TypeMismatch: 1 > :oops\n"
    )


def test_run_memory_does_not_grow_with_the_trace(tmp_path):
    # every message fires `p` once and is consumed, so nothing the actor
    # needs grows with the trace: neither may what `run` holds on the way
    patterns = tmp_path / "p.sprw"
    patterns.write_text("pattern p as {:a, x, y} when y > 0\nreact_to p, with: emit(seen)\n")
    trace, out = tmp_path / "t.jsonl", tmp_path / "out.jsonl"
    args = ["run", "--patterns", str(patterns), "--trace", str(trace), "--out", str(out)]

    def traced_peak(n):
        trace.write_text("".join(f'{{"ts": {i}, "type": ":a", "attrs": [{i}, 1]}}\n'
                                 for i in range(n)))
        tracemalloc.start()
        try:
            assert cli.main(args) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out.read_text().splitlines()) == n
        return peak

    traced_peak(10)  # first-use allocations stay out of both readings
    assert traced_peak(4_000) - traced_peak(1_000) < 256 * 1024


def test_constant_tests_keep_one_and_true_apart(tmp_path):
    # 1 == True in Python, but not under values_equal: the two constituents
    # must not share an alpha node
    patterns = tmp_path / "p.sprw"
    patterns.write_text("pattern one as {:a, 1}\npattern yes as {:a, true}\n")
    trace = tmp_path / "t.jsonl"
    trace.write_text('{"ts": 1, "type": ":a", "attrs": [true]}\n{"ts": 2, "type": ":a", "attrs": [1]}\n')
    args = ("--patterns", str(patterns), "--trace", str(trace))
    r = run_cli("run", *args)
    assert r.returncode == 0, r.stderr
    assert r.stdout == (
        '{"at":1,"pattern":"yes","reaction":null,"messageIds":[1],"bindings":{},"intermediates":{}}\n'
        '{"at":2,"pattern":"one","reaction":null,"messageIds":[2],"bindings":{},"intermediates":{}}\n'
    )
    r = run_cli("oracle", *args, "--diff")
    assert r.returncode == 0
    assert "identical (2 records)" in r.stdout


def test_retention_warnings_do_not_depend_on_the_hash_seed():
    args = (
        "run",
        "--patterns", str(fixture_path("scenario1.sprw")),
        "--trace", str(fixture_path("scenario1.trace.jsonl")),
    )
    # string hashing under these seeds orders {"amb_light", "motion"} differently
    first, second = (run_cli(*args, env={**os.environ, "PYTHONHASHSEED": seed}) for seed in "12")
    assert first.returncode == second.returncode == 0
    assert first.stderr == second.stderr == (
        "warning: messages of type :amb_light are retained until consumed\n"
        "warning: messages of type :motion are retained until consumed\n"
    )


def test_check_reports_shared_variables_fig9():
    r = run_cli("check", "--patterns", str(CORPUS_DIR / "fig9.sprw"))
    assert r.returncode == 0
    assert "shared variable 'id' across constituents 1, 2, 3" in r.stdout


def test_check_reports_no_sharing_fig10c():
    r = run_cli("check", "--patterns", str(CORPUS_DIR / "fig10c.sprw"))
    assert r.returncode == 0
    lines = [l for l in r.stdout.splitlines() if "occupied_home" in l or "shared" in l]
    assert any("shared variables: none" in l for l in lines)


def test_check_warns_about_negated_types_nothing_consumes(tmp_path):
    # :m is only negated and has no window: nothing consumes its blockers;
    # :n has a window and :o is consumed by `q`, so neither is named
    program = tmp_path / "negated.sprw"
    program.write_text(
        "pattern p as {:a, x} and not {:m, x} and not {:n, x}[window: {1, :secs}]\n"
        "pattern q as {:b, x} and not {:o, x}\n"
        "pattern r as {:o, x}\n"
    )
    r = run_cli("check", "--patterns", str(program))
    assert r.returncode == 0
    assert r.stderr == (
        "warning: messages of type :m are only negated, without a window: "
        "nothing consumes them, so without a lifetime they accumulate\n"
    )


def test_run_warns_about_negated_types_as_check_does(tmp_path):
    # :a is consumed by `p`; nothing consumes :m
    program = tmp_path / "negated.sprw"
    program.write_text("pattern p as {:a, x} and not {:m, x}\n")
    trace = tmp_path / "trace.jsonl"
    trace.write_text('{"ts": 0, "type": ":m", "attrs": [1]}\n'
                     '{"ts": 5, "type": ":a", "attrs": [2]}\n')
    r = run_cli("run", "--patterns", str(program), "--trace", str(trace))
    assert r.returncode == 0
    assert [json.loads(line)["messageIds"] for line in r.stdout.splitlines()] == [[2]]
    assert r.stderr == (
        "warning: messages of type :a are retained until consumed\n"
        "warning: messages of type :m are only negated, without a window: "
        "nothing consumes them, so without a lifetime they accumulate\n"
    )


def test_python_dash_m_sprw_runs_the_cli():
    src = pathlib.Path(__file__).parents[1] / "src"
    r = subprocess.run(
        [sys.executable, "-m", "sprw", "check", "--patterns", str(CORPUS_DIR / "fig9.sprw")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert r.returncode == 0, r.stderr
    assert "shared variable 'id' across constituents 1, 2, 3" in r.stdout


def test_check_malformed_option_exit_2(tmp_path):
    bad = tmp_path / "bad.sprw"
    bad.write_text("pattern p as {:a, x}, options: [sequenced: true]\n")
    r = run_cli("check", "--patterns", str(bad))
    assert r.returncode == 2
    for key in ("seq", "interval", "last", "debounce"):
        assert key in r.stderr


def test_oracle_identical_on_fixture():
    r = run_cli(
        "oracle",
        "--patterns", str(fixture_path("scenario7.sprw")),
        "--trace", str(fixture_path("scenario7.trace.jsonl")),
        "--diff",
    )
    assert r.returncode == 0
    assert "identical (2 records)" in r.stdout


def test_oracle_perturbed_reports_divergence(monkeypatch, capsys):
    differential = cli.differential

    def perturbed(*args):
        diff = differential(*args)
        del diff.engine_records[len(diff.engine_records) // 2]
        return diff

    monkeypatch.setattr(cli, "differential", perturbed)
    code = cli.main([
        "oracle",
        "--patterns", str(fixture_path("scenario4.sprw")),
        "--trace", str(fixture_path("scenario4.trace.jsonl")),
        "--diff",
    ])
    out = capsys.readouterr().out
    assert code == 1
    assert "first divergence" in out
    assert "engine:" in out and "oracle:" in out


def test_fuzz_subcommand_smoke():
    r = run_cli("fuzz", "--count", "8", "--events", "60", "--seed", "99")
    assert r.returncode == 0, r.stderr
    assert "ok: 8 cases identical" in r.stdout


@pytest.mark.parametrize("option,value", [
    ("--count", "-3"), ("--count", "0"), ("--events", "0"), ("--events", "x"),
])
def test_fuzz_counts_must_be_positive(capsys, option, value):
    with pytest.raises(SystemExit) as exit_:
        cli.main(["fuzz", option, value])
    assert exit_.value.code == 2
    assert f"argument {option}: invalid positive_int value: '{value}'" in capsys.readouterr().err


@pytest.mark.parametrize("i", range(1, 8))
def test_all_scenarios_replay_to_expected_bytes(i, tmp_path):
    out = tmp_path / "out.jsonl"
    r = run_cli(
        "run",
        "--patterns", str(fixture_path(f"scenario{i}.sprw")),
        "--trace", str(fixture_path(f"scenario{i}.trace.jsonl")),
        "--out", str(out),
    )
    assert r.returncode == 0, r.stderr
    assert out.read_bytes() == fixture_path(f"scenario{i}.expected.jsonl").read_bytes()
