"""The benchmark's traced replay (bench/tracing.py) reaches into the program by
name: it patches ``audit._dataset_support``, ``audit.apply_mask``,
``FwlQuery.__call__`` and ``VectorMixture.sample``/``log_density`` and replays
the audit through public functions. This replays one small exact audit under
those patches, so a rename in the program fails here rather than in a
benchmark run."""

import sys
from pathlib import Path

from amplipriv import audit
from amplipriv.cli import run_scenario
from amplipriv.divergence import VectorMixture
from amplipriv.queries import FwlQuery

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import tracing  # noqa: E402


def test_traced_replay_of_an_exact_audit(tmp_path):
    scenario = ROOT / "scenarios" / "laplace_mean_rho05.json"
    patched = (audit._dataset_support, audit.apply_mask, FwlQuery.__call__,
               VectorMixture.sample, VectorMixture.log_density)
    tr = tracing.Tracer()
    replay = tmp_path / "replay"
    replay.mkdir()
    with tracing.instrumented(tr):
        tracing.replay_audit(tr, scenario, replay)
    assert (audit._dataset_support, audit.apply_mask, FwlQuery.__call__,
            VectorMixture.sample, VectorMixture.log_density) == patched

    # the replay writes the reports the command writes
    assert run_scenario("audit", str(scenario), str(tmp_path / "cli")) == 0
    for name in ("laplace_mean_rho05_audit.csv", "laplace_mean_rho05_audit.json"):
        assert (replay / name).read_bytes() == (tmp_path / "cli" / name).read_bytes()

    metrics = tracing.per_layer_metrics(tr, 1)
    assert metrics["cli.run_s"] > 0.0
    assert metrics["audit.components"] > 0
    assert metrics["divergence.quadrature_s"] > 0.0
    assert sum(tracing.layer_shares(tr).values()) > 0.99
