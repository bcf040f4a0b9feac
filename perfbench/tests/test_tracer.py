"""The tracer changes no output, wraps every binding, restores every
binding, and its self times add up."""

import json
import sys
from collections import defaultdict

import numpy as np

import sabmis
import sabmis.cli
import checkout
import run
import tracer as tracing


def _bindings() -> dict:
    return {(name, attr): obj for name, mod in list(sys.modules.items())
            if mod is not None and (name == "sabmis" or name.startswith("sabmis."))
            for attr, obj in vars(mod).items()}


def _hide_and_recover():
    key = sabmis.make_key(7, sabmis.StegoParams(N=64, M=32, num_secrets=2))
    cover = sabmis.cover_raster(64, 1)
    secrets = [sabmis.secret_raster(32, 10 + i) for i in range(2)]
    stego, report = sabmis.embed_images(cover, secrets, key)
    return stego, report, sabmis.extract_images(stego, key)


def test_traced_output_equals_untraced_bitwise_and_tracer_leaves_nothing_behind():
    before = _bindings()
    plain = _hide_and_recover()
    tr = tracing.Tracer()
    with tr.installed():
        assert tracing.installed_wrappers()
        traced = _hide_and_recover()
    assert np.array_equal(plain[0].pixels, traced[0].pixels)
    assert plain[1] == traced[1]
    assert all(np.array_equal(a.pixels, b.pixels) for a, b in zip(plain[2], traced[2]))
    assert tracing.installed_wrappers() == []
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_every_namespace_binding_is_wrapped_including_shadowed_module():
    measure_module = sys.modules["sabmis.measure"]
    assert sabmis.measure is not measure_module  # the package attribute is the function
    with tracing.Tracer().installed():
        for fn in (measure_module.measure, sabmis.measure, sabmis.codec.measure,
                   sabmis.solver.solve_lasso, sabmis.codec.solve_lasso,
                   sabmis.cli.embed_images, sabmis.embed_images, sabmis.synth.sparsify):
            assert getattr(fn, "__perfbench_traced__", False), fn


def test_spans_count_calls_and_self_time_is_span_minus_children():
    tr = tracing.Tracer()
    with tr.installed():
        _hide_and_recover()
    summary = tr.summary()
    assert summary["solver.solve_lasso"]["calls"] == 2 * 16   # one solve per secret block
    assert summary["measure.measure"]["calls"] == 2 * 2 * 16  # embed and extract
    assert summary["codec.embed_images"]["calls"] == 1

    children = defaultdict(float)
    for span_id, parent, _, _, start, end, _ in tr.spans:
        assert span_id == tr.spans[span_id][0] and end >= start
        if parent >= 0:
            children[parent] += end - start
    self_by_name = defaultdict(float)
    for span_id, _, _, name, start, end, _ in tr.spans:
        self_by_name[name] += end - start - children[span_id]
    for name, rec in summary.items():
        assert abs(rec["self_s"] - self_by_name[name]) < 1e-9

    roots = sum(end - start for _, parent, _, _, start, end, _ in tr.spans if parent < 0)
    layers = tracing.layer_self_seconds(summary)
    assert abs(sum(layers.values()) - roots) < 1e-9
    assert set(layers) <= set(run.LAYERS)


def test_benchmark_json_lists_the_metrics_run_prints():
    spec = json.loads((checkout.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
