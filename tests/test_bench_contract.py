"""The benchmark's per-layer contract, checked in the test suite.

`perfbench/run.py --trace 1` prints every `per_layer` metric that
`BENCHMARK.json` declares and fails with a KeyError on one that no traced
function produced, for instance a function that stops being called.  This
test runs one traced pass of each workload, as the traced run does, and
requires every declared name.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import tracer  # noqa: E402
import workloads  # noqa: E402

from fockdirichlet import cli  # noqa: E402

# metrics that perfbench/run.py adds itself, next to the tracer's
RUN_METRICS = {"src.lines", "trace.overhead_s"}


def test_every_declared_per_layer_metric_is_traced(tmp_path):
    declared = {m["name"] for m in
                json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    tr = tracer.Tracer()
    with tr.installed():
        for name in workloads.NAMES:
            out_dir = tmp_path / name
            paths = workloads.write(workloads.build(ROOT, name), out_dir / "configs")
            for path in paths:
                status, _ = cli.run_scenario(cli.load_config(str(path)),
                                             out_dir=str(out_dir), seed=1)
                assert status == 0, path.stem
    assert sorted(declared - RUN_METRICS - set(tr.metrics())) == []
