import errno
import json
import os
import stat
import threading

import pytest

import motive_calc.cli as cli
from motive_calc.cli import main
from motive_calc.report import (
    certificate_summary,
    render_json,
    report_passed,
    run_report,
)


@pytest.fixture(scope="module")
def report3():
    return run_report(3)


def test_report_passes(report3):
    assert report_passed(report3)
    assert report3["summary"]["all_passed"] is True
    assert report3["summary"]["surface_certificate"]["failed"] == []


def test_report_sections(report3):
    for key in (
        "tool_version",
        "invariants",
        "lattice",
        "group_certificate",
        "surface_certificate",
        "threefold_certificate",
        "decompositions",
        "betti",
        "filtration",
        "experimental",
    ):
        assert key in report3
    assert report3["experimental"]["middle_multiplicity"]["consistent"] is True
    assert report3["lattice"]["reduced_inverse"] == [["-2/3", "-1/3"], ["-1/3", "-2/3"]]


def test_report_rationals_are_strings(report3):
    text = render_json(report3)
    payload = json.loads(text)
    assert payload["lattice"]["full_matrix"][0][0] == "-2"


def test_report_deterministic(report3):
    again = run_report(3)
    assert render_json(report3) == render_json(again)


def test_experimental_never_fails_build(report3):
    doctored = json.loads(render_json(report3))
    doctored["experimental"]["middle_multiplicity"]["consistent"] = False
    assert report_passed(doctored)
    doctored["surface_certificate"][0]["status"] = "fail"
    assert not report_passed(doctored)


def test_certificate_summary():
    entries = [{"name": "a", "status": "pass"}, {"name": "b", "status": "fail"}]
    summary = certificate_summary(entries)
    assert summary == {"total": 2, "passed": 1, "failed": ["b"]}


# -- command line ---------------------------------------------------------------

def test_cli_invariants(capsys):
    assert main(["invariants", "--level", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cusp_count"] == 12


def test_cli_eval(capsys):
    assert main(["eval", "--level", "4", "piC(0) . piC(1)"]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_cli_eval_threefold(capsys):
    assert main(["eval", "--level", "3", "--threefold", "ptilde(1,2) . ptilde(2,1)"]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_cli_eval_threefold_split_is_orthogonal_at_level_six(capsys):
    assert main(["eval", "--level", "6", "--threefold", "alt11 . sym11"]) == 0
    assert capsys.readouterr().out.strip() == "0"


@pytest.mark.parametrize(
    "argv",
    [
        ["--level", "3", "pi1(5)"],
        ["--level", "3", "Delta(1,2)"],
        ["--level", "3", "mu0(x)"],
        ["--level", "3", "--threefold", "sigma(7)"],
    ],
)
def test_cli_eval_rejects_arguments_of_names_that_take_none(argv, capsys):
    assert main(["eval", *argv]) == 2
    assert "takes no arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--level", "3", "pi0 . sigma"], "'sigma' is not a surface name (at position 6)"),
        (["--level", "3", "--threefold", "sigma . pi0"], "'pi0' is not a threefold name (at position 8)"),
    ],
)
def test_cli_eval_rejects_names_of_the_other_mode(argv, message, capsys):
    assert main(["eval", *argv]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("factor", ["CP(0,1,1)", "piC(0)"])
def test_cli_eval_rejects_cusp_products_as_tensor_factors(factor, capsys):
    assert main(["eval", "--level", "3", "--threefold", f"T({factor},Delta)"]) == 2
    assert main(["eval", "--level", "3", "--threefold", f"T(Delta,{factor})"]) == 2
    assert "cusp products are not tensor factors" in capsys.readouterr().err


def test_cli_eval_parse_error(capsys):
    assert main(["eval", "--level", "4", "piC(0) . "]) == 2


def test_cli_eval_rejects_a_zero_denominator(capsys):
    assert main(["eval", "--level", "3", "1/0 * pi0"]) == 2
    assert "zero denominator (at position 2)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "source, message",
    [
        # a superscript two is a digit to str.isdigit but no int() literal
        ("G(1,2,1) . \u00b2", "unexpected character '\u00b2' (at position 11)"),
        # an Arabic-Indic one is a digit that int() reads as 1
        ("G(\u0661,2,1)", "unexpected character '\u0661' (at position 2)"),
    ],
)
def test_cli_eval_rejects_non_ascii_digits_with_their_position(source, message, capsys):
    assert main(["eval", "--level", "3", source]) == 2
    assert message in capsys.readouterr().err


def test_cli_eval_max_level_guard(capsys):
    assert main(["eval", "--level", "40", "pi1 . pi1"]) == 2
    assert "exceeds the configured maximum 12" in capsys.readouterr().err
    assert main(["eval", "--level", "13", "--max-level", "13", "Delta - Delta"]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_cli_internal_fault_exits_three(monkeypatch, capsys):
    from motive_calc import motives

    monkeypatch.setattr(motives, "basis_dim", lambda key, inv: 7)
    assert main(["decompose", "--level", "3"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: Betti Euler number")


def test_cli_unsupported_composition_exits_three(monkeypatch, capsys):
    import motive_calc.cli as cli
    from motive_calc.surface import UnsupportedCompositionError

    def outside_the_table(n, include_threefold=True):
        raise UnsupportedCompositionError("tgraph o graph with no invertible side")

    monkeypatch.setattr(cli, "run_report", outside_the_table)
    assert main(["report", "--level", "3"]) == 3
    assert capsys.readouterr().err == "internal error: tgraph o graph with no invertible side\n"


def test_cli_degree_error_exits_three(monkeypatch, capsys):
    import motive_calc.cli as cli
    from motive_calc.exact import DegreeError

    def squares_d_a(expression, level, mode):
        raise DegreeError("product would have a d_a^2 term")

    monkeypatch.setattr(cli, "evaluate", squares_d_a)
    assert main(["eval", "--level", "3", "pi0"]) == 3
    assert capsys.readouterr().err == "internal error: product would have a d_a^2 term\n"


def test_cli_level_too_small(capsys):
    assert main(["report", "--level", "2"]) == 2
    err = capsys.readouterr().err
    assert "level" in err


def test_cli_max_level_guard(capsys):
    assert main(["report", "--level", "13"]) == 2
    assert main(["invariants", "--level", "13"]) == 0  # invariants is not guarded
    capsys.readouterr()


def test_cli_lattice_max_level_guard(capsys):
    assert main(["lattice", "--level", "13"]) == 2
    assert "exceeds the configured maximum 12" in capsys.readouterr().err
    assert main(["lattice", "--level", "13", "--max-level", "13"]) == 0
    assert json.loads(capsys.readouterr().out)["rank"] == 12


def test_cli_report_and_verify(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["report", "--level", "3", "-o", str(out), "--surface-only"]) == 0
    payload = json.loads(out.read_text())
    assert payload["level"] == 3
    assert "threefold_certificate" not in payload
    assert main(["verify", "--level", "3", "--surface-only"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1] == "PASS"
    assert all(line.startswith("pass") for line in lines[:-1])


def test_cli_report_byte_identical(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["report", "--level", "3", "-o", str(a)]) == 0
    assert main(["report", "--level", "3", "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_decompose_and_filtration(capsys):
    assert main(["decompose", "--level", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["multiplicity"]["difference_assembly_minus_closed_form"] == 2
    assert main(["decompose", "--level", "4", "--threefold", "--format", "text"]) == 0
    text = capsys.readouterr().out
    assert "W2" in text
    assert main(["filtration", "--level", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    steps = payload["threefold"]["chow_groups"][3]["steps"]
    assert steps[3]["label"] == "CH^3(W2)"


def test_cli_lattice_text(capsys):
    assert main(["lattice", "--level", "3", "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "rank 2" in out


@pytest.mark.parametrize("argv, marker", [
    (["lattice", "--level", "3"], "rank 2"),
    (["decompose", "--level", "3"], "betti:"),
    (["filtration", "--level", "3"], "CH^1:"),
    (["report", "--level", "3", "--surface-only"], "surface"),
], ids=lambda v: v[0] if type(v) is list else "")
def test_cli_format_text_on_the_subcommands_that_render_both_forms(argv, marker, capsys):
    assert main([*argv, "--format", "json"]) == 0
    json.loads(capsys.readouterr().out)
    assert main([*argv, "--format", "text"]) == 0
    text = capsys.readouterr().out
    assert marker in text and not text.startswith("{")


@pytest.mark.parametrize("argv", [
    ["invariants", "--level", "3"],
    ["eval", "--level", "3", "piC(0)"],
    ["verify", "--level", "3", "--surface-only"],
], ids=lambda v: v[0])
def test_cli_format_is_refused_where_one_form_is_printed(argv, capsys):
    with pytest.raises(SystemExit) as refused:
        main([*argv, "--format", "text"])
    assert refused.value.code == 2
    assert "unrecognized arguments: --format text" in capsys.readouterr().err


def test_cli_exit_one_on_failing_certificate(monkeypatch, capsys):
    import motive_calc.cli as cli

    def fake_run_report(n, include_threefold=True):
        return {
            "tool_version": "test",
            "level": n,
            "surface_certificate": [
                {"name": "broken", "lhs": "a", "rhs": "b", "status": "fail"}
            ],
            "summary": {"all_passed": False},
        }

    monkeypatch.setattr(cli, "run_report", fake_run_report)
    assert main(["report", "--level", "3"]) == 1
    capsys.readouterr()
    assert main(["verify", "--level", "3"]) == 1
    assert capsys.readouterr().out.strip().splitlines()[-1] == "FAIL"


def test_cli_eval_rejects_an_unknown_name_before_computing(monkeypatch, capsys):
    from motive_calc import dsl

    def no_products(after, before):
        raise AssertionError("a product was computed")

    monkeypatch.setattr(dsl, "compose", no_products)
    assert main(["eval", "--level", "12", "pi1 . pi1 + nope"]) == 2
    assert "unknown surface atom 'nope' (at position 12)" in capsys.readouterr().err


@pytest.mark.parametrize("level", ["0", "2", "-3"])
@pytest.mark.parametrize("mode", [[], ["--threefold"]])
def test_cli_eval_rejects_levels_below_three(level, mode, capsys):
    expression = "T(pi0, pi0)" if mode else "Delta"
    assert main(["eval", *mode, "--level", level, expression]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: level must be an integer >= 3, got {int(level)}\n"


def test_cli_refuses_an_output_path_in_a_missing_directory_before_any_work(tmp_path, monkeypatch, capsys):
    import motive_calc.cli as cli

    def no_report(n, include_threefold=True):
        raise AssertionError("the report was computed")

    monkeypatch.setattr(cli, "run_report", no_report)
    target = tmp_path / "missing" / "x.json"
    assert main(["report", "--level", "3", "-o", str(target)]) == 2
    assert capsys.readouterr().err == f"error: cannot write {target}: no directory {target.parent}\n"
    assert not target.parent.exists()


def test_cli_an_output_path_that_fails_at_write_time_exits_two(tmp_path, capsys):
    # a directory passes the check made before the work, and fails only when opened
    assert main(["invariants", "--level", "3", "-o", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {tmp_path}: ")
    assert "Traceback" not in err


class _FailsAfterFirstChunk:
    """A file opened by `cli._write` whose write stores the first 1,000 characters and then fails, as a full disk does."""

    def __init__(self, path, mode):
        self.fh = open(path, mode)

    def write(self, text):
        self.fh.write(text[:1000])
        self.fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


@pytest.mark.parametrize("existing", [None, b"the report of an earlier run\n"])
def test_cli_a_write_that_fails_part_way_leaves_no_partial_file(existing, tmp_path, monkeypatch, capsys):
    target = tmp_path / "report.json"
    if existing is not None:
        target.write_bytes(existing)
    monkeypatch.setattr(cli, "open", _FailsAfterFirstChunk, raising=False)
    assert main(["report", "--level", "3", "--surface-only", "-o", str(target)]) == 2
    assert capsys.readouterr().err == f"error: cannot write {target}: No space left on device\n"
    # no file under the name, or the one there unchanged, and no temporary file beside it
    assert [p.name for p in tmp_path.iterdir()] == ([] if existing is None else ["report.json"])
    if existing is not None:
        assert target.read_bytes() == existing


def test_cli_output_replaces_a_file_and_writes_through_a_link(tmp_path):
    target, link = tmp_path / "report.json", tmp_path / "link.json"
    target.write_text("x" * 100_000)
    link.symlink_to(target)
    assert main(["invariants", "--level", "5", "-o", str(link)]) == 0
    assert link.is_symlink() and json.loads(target.read_text())["cusp_count"] == 12
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "report.json"]


def test_cli_output_to_a_pipe_is_written_in_place(tmp_path):
    # a device or a pipe, such as /dev/null, is no file to replace
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    read = []
    reader = threading.Thread(target=lambda: read.append(pipe.read_text()))
    reader.start()
    try:
        assert main(["invariants", "--level", "5", "-o", str(pipe)]) == 0
    finally:
        reader.join(timeout=30)
    assert not reader.is_alive()
    assert json.loads(read[0])["cusp_count"] == 12
    assert stat.S_ISFIFO(pipe.stat().st_mode) and [p.name for p in tmp_path.iterdir()] == ["pipe"]


# -- the JSON renderer against json.dumps, its oracle

CLI_JSON = [["report"], ["report", "--surface-only"], ["lattice"], ["decompose"], ["decompose", "--threefold"],
            ["filtration"], ["invariants"]]


@pytest.mark.parametrize("n", range(3, 9))
def test_every_cli_json_output_is_what_json_dumps_writes(n, tmp_path, monkeypatch):
    payloads = []

    def kept(payload):
        payloads.append(payload)
        return render_json(payload)

    monkeypatch.setattr(cli, "render_json", kept)
    out = tmp_path / "out.json"
    for argv in CLI_JSON:
        assert main([*argv, "--level", str(n), "-o", str(out)]) == 0
        assert out.read_bytes() == (json.dumps(payloads[-1], indent=2) + "\n").encode()
    assert len(payloads) == len(CLI_JSON)


SYNTHETIC = [
    {}, [], {"a": {}}, {"a": []}, [[]], [{}], [[], {}], {"a": {"b": {"c": []}}, "d": [[[{}]]]},
    {"quote": 'say "so"', "back\\slash": "a\\b", 'key "q"': "", "": ""},
    ["\x00\x01\x1f", "\t\n\r\x08\x0c", "\x7f"],
    {"non-ascii": ["\u00e9t\u00e9", "\u2013", "\U0001d53e", "\u2028", "\ud800"], "\u00fc": "\u00fc"},
    [True, 1, False, 0, None], {"t": True, "one": 1, "none": None},
    [-1, -(10 ** 99), 10 ** 100 - 1, 10 ** 100, 0],
    {"nested": [1, [2, [3, {"x": [None, "s", True]}]]]},
]


@pytest.mark.parametrize("payload", SYNTHETIC)
def test_render_json_is_what_json_dumps_writes(payload):
    assert render_json(payload) == json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("payload", [1.5, {"a": [0.0]}, (1, 2), {"a": (1,)}, {1, 2}, [{1}], {1: "a"}, {"a": {2: "b"}}])
def test_render_json_refuses_what_a_report_holds_no_literal_for(payload):
    with pytest.raises(TypeError):
        render_json(payload)
