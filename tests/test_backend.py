"""The package has one pure-Python kernel set and needs no numpy
(DESIGN.md §11).

These tests pin that the ATPG, STA and sharing-graph kernels run with
numpy blocked from import, that the ``backend`` keyword of
:func:`repro.runtime.configure` accepts only ``"python"`` and stores
nothing, and that the CLI has no ``--backend`` flag.
"""

import sys

import pytest

from repro.atpg.engine import AtpgConfig, run_stuck_at_atpg
from repro.cli import main
from repro.core.graph import build_wcm_graph
from repro.dft.testview import build_prebond_test_view
from repro.netlist.core import PortKind
from repro.runtime.config import configure
from repro.sta.constraints import ClockConstraint
from repro.sta.timer import TimingContext
from repro.util.errors import ConfigError
from repro.verify.fuzz import spec_for_iteration


class TestSelection:
    def test_default_is_python(self):
        assert not hasattr(configure(), "backend")
        config = configure(backend="python", jobs=1)
        assert config.jobs == 1
        assert not hasattr(config, "backend")

    def test_unknown_backend_rejected(self):
        for name in ("numpy", "fortran"):
            with pytest.raises(ConfigError, match="removed"):
                configure(backend=name)


class TestCliBackend:
    def test_bad_backend_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--backend", "numpy", "die", "b12", "1"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith("repro: error: ")


class TestPythonWithoutNumpy:
    def test_python_backend_runs_with_numpy_hidden(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "numpy", None)  # import -> ImportError
        spec = spec_for_iteration(2019, 0)
        problem = spec.build_problem()
        atpg = run_stuck_at_atpg(
            build_prebond_test_view(problem.netlist),
            AtpgConfig(seed=3, block_width=64, max_random_blocks=2,
                       podem_fault_limit=50))
        assert atpg.total_faults > 0 and atpg.detected > 0
        timing = TimingContext(problem.netlist).analyze(
            ClockConstraint(period_ps=800.0))
        assert timing.arrival_ps and timing.endpoints
        config = spec.build_config(problem)
        for kind in (PortKind.TSV_INBOUND, PortKind.TSV_OUTBOUND):
            graph = build_wcm_graph(problem, kind, problem.scan_ffs, config)
            assert graph.stats.nodes == len(graph.nodes) > 0
