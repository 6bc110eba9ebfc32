"""Tests for the command-line interface."""

import sys

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.cli import _DRIVERS, main


class TestCli:
    def test_table2_smoke(self, capsys):
        assert main(["--scale", "smoke", "table2"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        assert "b11" in out

    def test_die_command(self, capsys):
        assert main(["die", "b11", "0"]) == 0
        out = capsys.readouterr().out
        assert "b11_die0" in out
        assert "ours/tight" in out
        assert "overhead" in out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_bad_scale_exits(self):
        with pytest.raises(SystemExit):
            main(["--scale", "galactic", "table2"])

    def test_profile_command(self, capsys):
        assert main(["profile", "b11", "0"]) == 0
        out = capsys.readouterr().out
        assert "profiling b11_die0" in out
        assert "flow.graph" in out
        assert "clique.merges" in out
        assert "agrawal/tight" in out and "ours/tight" in out

    def test_runtime_flags_configure(self, capsys):
        from repro.runtime import current_config
        assert main(["--jobs", "2", "--scale", "smoke", "table2"]) == 0
        assert current_config().jobs == 2
        # flags are also accepted after the subcommand
        assert main(["table2", "--scale", "smoke", "--jobs", "3"]) == 0
        assert current_config().jobs == 3

    def test_cache_flags(self, tmp_path, capsys):
        from repro.runtime import current_config
        assert main(["--cache-dir", str(tmp_path), "--scale", "smoke",
                     "figure7"]) == 0
        config = current_config()
        assert config.cache_dir == str(tmp_path)
        assert not config.no_cache
        assert main(["--no-cache", "--scale", "smoke", "table2"]) == 0
        assert current_config().no_cache

    def test_supervision_flags_configure(self, tmp_path, capsys):
        from repro.runtime import current_config
        assert main(["table2", "--scale", "smoke", "--timeout", "30",
                     "--retries", "2", "--strict",
                     "--checkpoint-dir", str(tmp_path)]) == 0
        config = current_config()
        assert config.timeout_s == 30.0
        assert config.retries == 2
        assert config.strict
        assert config.checkpoint_dir == str(tmp_path)
        # a zero timeout means "no budget"
        assert main(["table2", "--scale", "smoke", "--timeout", "0"]) == 0
        assert current_config().timeout_s is None

    def test_negative_timeout_exits(self, capsys):
        assert main(["table2", "--scale", "smoke", "--timeout", "-1"]) == 2
        assert capsys.readouterr().err.startswith("repro: error: ")

    def test_session_script(self, tmp_path, capsys):
        script = tmp_path / "edits.eco"
        script.write_text("info\n"
                          "solve\n"
                          "move-ff ff0 12 34\n"
                          "solve\n"
                          "set d_th_um 200\n"
                          "solve\n")
        assert main(["session", "b11", "0", "--script", str(script),
                     "--verify"]) == 0
        out = capsys.readouterr().out
        assert "session: b11_die0 loaded" in out
        assert "[solve 1]" in out and "[solve 3]" in out
        assert out.count("verify=ok") == 3
        assert "MISMATCH" not in out

    def test_session_bad_edit_exits(self, tmp_path, capsys):
        script = tmp_path / "bad.eco"
        script.write_text("move-ff no_such_ff 0 0\n")
        assert main(["session", "b11", "0",
                     "--script", str(script)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_tables_alias(self, capsys, monkeypatch):
        import repro.cli as cli
        monkeypatch.setattr(cli, "_EXPORT_ORDER", ("table2",))
        assert main(["--scale", "smoke", "tables"]) == 0
        assert "Table II" in capsys.readouterr().out

    def test_export(self, tmp_path, capsys, monkeypatch):
        # export the two cheap artifacts only (the full set is the
        # benchmark harness's job)
        import repro.cli as cli
        monkeypatch.setattr(cli, "_EXPORT_ORDER", ("table2", "figure7"))
        target = tmp_path / "results.md"
        assert main(["--scale", "smoke", "export", str(target)]) == 0
        text = target.read_text()
        assert "# Regenerated results" in text
        assert "table2" in text and "figure7" in text


_KERNELS = "benchmarks/BENCH_kernels.json"
_MANIFEST = "tests/golden/table3_smoke_manifest.json"

#: bad input -> one ``repro: error:`` line and exit 2; ``{tmp}`` is a
#: per-test scratch directory, so ``{tmp}/missing.json`` does not exist
_BAD_INPUTS = {
    "unknown-circuit": ["die", "b99", "1"],
    "trace-diff-missing": ["trace", "diff", "{tmp}/missing.json",
                           "{tmp}/missing.json"],
    "trace-show-directory": ["trace", "show", "{tmp}"],
    "bench-gate-missing": ["bench", "gate", "{tmp}/missing.json"],
    "bench-gate-missing-golden": ["bench", "gate",
                                  "benchmarks/BENCH_kernels.json",
                                  "--golden", "{tmp}/missing.json"],
    "scale-zero-gates": ["scale", "--gates", "0", "--out", "-"],
    "scale-zero-points": ["scale", "--gates", "1e3:1e4:0", "--out", "-"],
    "scale-bad-density": ["scale", "--gates", "1000",
                          "--tsv-density", "dense", "--out", "-"],
    "scale-negative-sta-cap": ["scale", "--gates", "1000",
                               "--sta-cap", "-5", "--out", "-"],
    "scale-negative-flow-cap": ["scale", "--gates", "1000",
                                "--flow-cap", "-5", "--out", "-"],
    "fuzz-negative-budget": ["fuzz", "--budget", "-1"],
    "fuzz-zero-budget": ["fuzz", "--budget", "0"],
    "fuzz-zero-budget-self-check": ["fuzz", "--self-check",
                                    "--budget", "0"],
    "fuzz-negative-seconds": ["fuzz", "--seconds", "-3"],
    "fuzz-infinite-seconds": ["fuzz", "--seconds", "inf"],
    "scale-zero-repeat": ["scale", "--gates", "1000", "--repeat", "0",
                          "--out", "-"],
    "scale-nan-density": ["scale", "--gates", "1000",
                          "--tsv-density", "nan", "--out", "-"],
    "schedule-zero-tam": ["schedule", "--tam", "0"],
    "bench-gate-nan-tolerance": ["bench", "gate", _KERNELS,
                                 "--golden", _KERNELS,
                                 "--tolerance", "nan"],
    "bench-gate-negative-tolerance": ["bench", "gate", _KERNELS,
                                      "--golden", _KERNELS,
                                      "--tolerance", "-5"],
    "trace-diff-nan-tolerance": ["trace", "diff", _MANIFEST, _MANIFEST,
                                 "--tolerance", "nan"],
    "trace-diff-negative-tolerance": ["trace", "diff", _MANIFEST,
                                      _MANIFEST, "--tolerance", "-1"],
    "nan-timeout": ["--timeout", "nan", "table2"],
    "serve-zero-workers": ["serve", "--state-dir", "{tmp}",
                           "--serve-workers", "0"],
    "serve-zero-cap": ["serve", "--state-dir", "{tmp}",
                       "--cap-normal", "0"],
    "serve-zero-max-attempts": ["serve", "--state-dir", "{tmp}",
                                "--max-attempts", "0"],
    "serve-zero-breaker-threshold": ["serve", "--state-dir", "{tmp}",
                                     "--breaker-threshold", "0"],
    "serve-nan-job-timeout": ["serve", "--state-dir", "{tmp}",
                              "--job-timeout", "nan"],
    "serve-negative-default-deadline": ["serve", "--state-dir", "{tmp}",
                                        "--default-deadline", "-1"],
    "submit-nan-deadline": ["submit", "noop", "--state-dir", "{tmp}",
                            "--deadline", "nan"],
    "submit-zero-wait-timeout": ["submit", "noop", "--state-dir", "{tmp}",
                                 "--wait-timeout", "0"],
}


def _no_work(*_args, **_kwargs):
    raise AssertionError("bad input reached the work it should refuse")


class TestBadInput:
    @pytest.mark.parametrize("argv", list(_BAD_INPUTS.values()),
                             ids=list(_BAD_INPUTS))
    def test_exits_2_with_one_line_error(self, argv, tmp_path, capsys,
                                         monkeypatch):
        # neither a daemon nor a client may start on bad input
        monkeypatch.setattr("repro.serve.server.WcmServer", _no_work)
        monkeypatch.setattr("repro.serve.client.ServeClient", _no_work)
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert captured.err.startswith("repro: error: ")
        assert captured.err.count("\n") == 1


class _FakeStdin:
    """Non-tty stdin whose readline can be scripted to raise."""

    def __init__(self, exc=None):
        self.exc = exc

    def isatty(self):
        return False

    def readline(self):
        if self.exc is not None:
            raise self.exc
        return ""  # EOF


class TestSessionInterrupt:
    def test_ctrl_c_exits_130_on_a_fresh_line(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin",
                            _FakeStdin(KeyboardInterrupt()))
        assert main(["session", "b11", "0"]) == 130
        out = capsys.readouterr().out
        assert out.endswith("\n")  # terminal left on a fresh line

    def test_eof_exits_cleanly_zero(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", _FakeStdin())
        assert main(["session", "b11", "0"]) == 0
        assert "session: b11_die0 loaded" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Every numeric option of every subcommand, fed garbage
# ---------------------------------------------------------------------------
#: the smallest valid argv of each subcommand; ``{tmp}`` is a scratch
#: directory
_BASE_ARGV = {
    "die": ["die", "b11", "0"],
    "profile": ["profile", "b11", "0"],
    "session": ["session", "b11", "0"],
    "export": ["export", "{tmp}/results.md"],
    "scale": ["scale", "--gates", "1000", "--out", "-"],
    "serve": ["serve", "--state-dir", "{tmp}"],
    "submit": ["submit", "noop", "--state-dir", "{tmp}"],
    "jobs": ["jobs", "--state-dir", "{tmp}"],
    "trace": ["trace", "diff", _MANIFEST, _MANIFEST],
    "bench": ["bench", "gate", _KERNELS, "--golden", _KERNELS],
}

#: numeric option (flag, or dest of a positional) -> a number outside
#: its domain, or None when every number is valid
_OUT_OF_DOMAIN = {
    "--seed": None, "--jobs": "-1", "--timeout": "-1", "--retries": "-1",
    "die": "99",
    "--budget": "0", "--seconds": "0",
    "--repeat": "0", "--sta-cap": "-1", "--flow-cap": "-1",
    "--tam": "0", "--width": "0", "--fixed-patterns": "0",
    "--serve-workers": "0", "--job-timeout": "0", "--max-attempts": "0",
    "--breaker-threshold": "0", "--default-deadline": "0",
    "--cap-interactive": "0", "--cap-normal": "0", "--cap-batch": "0",
    "--deadline": "0", "--wait-timeout": "0",
    "--tolerance": "-1",
}


def _numeric_options():
    """(subcommand, option) for every int/float option the parser has;
    the runtime options every subcommand shares are listed once."""
    import argparse

    from repro.cli import build_parser

    def numeric(parser):
        return [option.option_strings[0] if option.option_strings
                else option.dest
                for option in parser._actions
                if option.type in (int, float)]

    parser = build_parser()
    shared = numeric(parser)
    out = [("table2", name) for name in shared]
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for command, subparser in action.choices.items():
                out += [(command, name) for name in numeric(subparser)
                        if name not in shared]
    return out


_NUMERIC_OPTIONS = _numeric_options()

#: what starts work in each subcommand; none of it may run
_WORK_ENTRY_POINTS = (
    "repro.cli._run_driver", "repro.bench.generate_die",
    "repro.bench.scaling.run_scaling", "repro.schedule.run_schedule",
    "repro.verify.run_fuzz", "repro.verify.self_check",
    "repro.serve.server.WcmServer", "repro.serve.client.ServeClient",
    "repro.runtime.trace.load_manifest", "repro.runtime.trace.gate",
)


class TestNumericArgvFuzz:
    def test_every_numeric_option_has_a_domain(self):
        assert _NUMERIC_OPTIONS
        missing = {name for _command, name in _NUMERIC_OPTIONS
                   if name not in _OUT_OF_DOMAIN}
        assert not missing, f"no out-of-domain value for {missing}"

    @settings(max_examples=300, deadline=None)
    @given(option=st.sampled_from(_NUMERIC_OPTIONS),
           value=st.sampled_from(["abc", "", "1x", "nan", "inf", "-inf",
                                  "out-of-domain"]))
    def test_bad_value_exits_2_before_any_work(self, option, value):
        import contextlib
        import io
        import tempfile

        command, name = option
        if value == "out-of-domain":
            value = _OUT_OF_DOMAIN[name]
            assume(value is not None)
        with tempfile.TemporaryDirectory() as tmp, \
                pytest.MonkeyPatch.context() as patch:
            for target in _WORK_ENTRY_POINTS:
                patch.setattr(target, _no_work)
            patch.setattr("repro.cli._DRIVERS",
                          {key: _no_work for key in _DRIVERS})
            argv = [arg.format(tmp=tmp)
                    for arg in _BASE_ARGV.get(command, [command])]
            if name.startswith("--"):
                argv += [name, value]
            else:
                argv[argv.index("0")] = value  # the positional die index
            err = io.StringIO()
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                try:
                    code = main(argv)
                except SystemExit as exit_:
                    code = exit_.code
            message = err.getvalue()
        assert code == 2, (argv, message)
        assert "Traceback" not in message
        lines = message.splitlines()
        if lines and lines[0].startswith("usage:"):
            assert lines[-1].split(": error: ")[0].startswith("repro")
        else:
            assert lines == [lines[0]] and lines[0].startswith(
                "repro: error: "), (argv, message)
