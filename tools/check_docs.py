"""Documentation checks run by the CI docs job.

Four checks, no third-party dependencies beyond the library's own:

1. **Internal links** — every relative markdown link in ``docs/*.md`` (and
   the README) must point at a file or directory that exists.
2. **Example syntax** — every fenced ``python`` block in the docs must be
   valid Python (compiled, not executed: the examples train models).
3. **Import smoke** — every documented public module imports, and the names
   the docs present as the public API exist where they say they do.
4. **Config keywords** — every keyword a fenced example passes to a
   ``repro.config`` dataclass constructor is a field of that dataclass, and
   every keyword it passes to ``StreamEngine(...)``,
   ``StreamEngine.from_model(...)``, ``model.stream_engine(...)`` or — as an
   engine override — to ``detection_service(...)`` / ``DetectionService(...)``
   is a parameter of ``StreamEngine.__init__``, and every keyword it passes
   to ``detect(...)`` / ``detect_many(...)`` is a parameter of
   ``OnlineDetector``'s method of that name, so an example naming a deleted
   option fails although it still compiles.

Run locally with::

    PYTHONPATH=src python tools/check_docs.py
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DOC_FILES = sorted((REPO / "docs").glob("*.md")) + [REPO / "README.md"]

LINK_PATTERN = re.compile(r"(?<!!)\[[^\]]+\]\(([^)\s]+)\)")
FENCE_PATTERN = re.compile(r"```python\n(.*?)```", re.DOTALL)

#: module -> names the docs promise it exposes
PUBLIC_SURFACE = {
    "repro.core": [
        "RL4OASDTrainer", "RL4OASDModel", "TrainingReport", "OnlineDetector",
        "OnlineLearner", "StreamEngine", "replay_fleet",
    ],
    "repro.core.rl4oasd": ["RL4OASDTrainer", "RL4OASDModel"],
    "repro.core.asdnet": ["ASDNet", "BatchedEpisode"],
    "repro.core.rsrnet": ["RSRNet"],
    "repro.core.stream": ["StreamEngine", "SegmentFeatureCache"],
    "repro.core.online": ["OnlineLearner", "FineTuneRecord"],
    "repro.core.detector": ["OnlineDetector", "finish_labels"],
    "repro.core.decision": ["label_route", "policy_choices", "choose",
                            "sample_labels", "rnel_from_degrees",
                            "rnel_from_degrees_batch", "apply_rnel"],
    "repro.serve": [
        "DetectionService", "IngestStatus", "serve_fleet", "shard_of",
        "ServiceMetrics", "ShardStats", "save_model", "load_model",
        "clone_model", "weights_snapshot", "model_to_bytes",
        "model_from_bytes",
    ],
    "repro.serve.checkpoint": ["CHECKPOINT_VERSION", "save_model", "load_model"],
    "repro.history": [
        "HistorySnapshot", "RouteHistoryStore", "HistoryDelta", "apply_delta",
        "merge_deltas", "snapshot_to_bytes", "snapshot_from_bytes",
        "clone_snapshot", "delta_to_bytes", "delta_from_bytes",
        "HistoryArchive", "RollForwardDriver", "RollForwardStats",
    ],
    "repro.serve.backends": ["InProcessBackend", "ProcessBackend", "IngestEvent"],
    "repro.serve.metrics": ["GatewayStats", "ServiceMetrics", "ShardStats"],
    "repro.ingest": ["GpsGateway", "SessionResult", "serve_raw_fleet"],
    "repro.mapmatching": [
        "HMMMapMatcher", "OnlineMapMatcher", "OnlineMatchResult",
        "SegmentPairDistanceCache",
    ],
    "repro.trajectory": ["interleave_raw_streams", "RawTrajectory", "GPSPoint"],
    "repro.eval": [
        "evaluate_labelings", "evaluate_detector", "measure_detector",
        "LatencyReport",
    ],
    "repro.nn": [
        "LSTM", "LSTMCell", "sequence_cross_entropy_from_logits",
        "cosine_similarity_rows", "sigmoid",
    ],
    "repro.experiments.common": ["prepare_city", "train_rl4oasd"],
    "repro.datagen": ["tiny_dataset"],
    "repro.config": ["TrainingConfig", "ObsConfig"],
    "repro.obs": [
        "Counter", "Gauge", "Histogram", "MetricsRegistry", "Reservoir",
        "default_latency_buckets", "STAGES", "STAGE_LATENCY_METRIC",
        "Span", "TraceContext", "Tracer", "write_spans_jsonl",
        "MetricsServer", "parse_prometheus", "render_prometheus",
        "RenderCache", "add_process_metrics", "process_rss_bytes",
        "ScrapeRecorder", "SeriesStore", "fetch_metrics", "load_series",
        "HealthReport", "SloRule", "default_soak_rules", "evaluate_rules",
        "parse_rules",
    ],
    "repro.obs.timeseries": [
        "ScrapePoint", "ScrapeRecorder", "SeriesStore", "WindowRate",
        "fetch_metrics", "load_series", "scrape",
    ],
    "repro.obs.health": [
        "HealthReport", "RuleResult", "SloRule", "default_soak_rules",
        "evaluate_rules", "parse_rule", "parse_rules",
    ],
    "repro.cli": ["build_parser", "main"],
    "repro.cli.soak": ["SoakHarness", "SoakOptions"],
}


def check_links() -> list:
    errors = []
    for doc in DOC_FILES:
        text = doc.read_text(encoding="utf-8")
        for match in LINK_PATTERN.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            resolved = (doc.parent / path).resolve()
            if not resolved.exists():
                errors.append(f"{doc.relative_to(REPO)}: broken link -> {target}")
    return errors


def python_fences():
    """``(doc, index, source)`` of every fenced ``python`` block."""
    for doc in DOC_FILES:
        text = doc.read_text(encoding="utf-8")
        for index, match in enumerate(FENCE_PATTERN.finditer(text), start=1):
            yield doc, index, match.group(1)


def check_python_fences() -> list:
    errors = []
    for doc, index, source in python_fences():
        try:
            compile(source, f"{doc.name}:fence{index}", "exec")
        except SyntaxError as error:
            errors.append(f"{doc.relative_to(REPO)}: python fence "
                          f"#{index} does not compile: {error}")
    return errors


def _parameters(function) -> set:
    return {name for name, parameter
            in inspect.signature(function).parameters.items()
            if parameter.kind is not parameter.VAR_KEYWORD}


def check_config_keywords() -> list:
    import repro.config
    from repro.core import OnlineDetector, RL4OASDModel, StreamEngine
    from repro.serve import DetectionService

    fields = {name: {field.name for field in dataclasses.fields(cls)}
              for name, cls in vars(repro.config).items()
              if isinstance(cls, type) and dataclasses.is_dataclass(cls)}
    # Callables that forward **overrides to StreamEngine.__init__ accept
    # their own parameters plus the engine's.
    engine = _parameters(StreamEngine.__init__)
    fields["StreamEngine"] = engine
    for function in (StreamEngine.from_model, RL4OASDModel.stream_engine,
                     RL4OASDModel.detection_service):
        fields[function.__name__] = _parameters(function) | engine
    fields["DetectionService"] = _parameters(DetectionService.__init__) | engine
    fields["detection_service"] |= fields["DetectionService"]
    for function in (OnlineDetector.detect, OnlineDetector.detect_many):
        fields[function.__name__] = _parameters(function)
    errors = []
    for doc, index, source in python_fences():
        try:
            tree = ast.parse(source)
        except SyntaxError:
            continue  # check_python_fences reports it
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name not in fields:
                continue
            for keyword in node.keywords:  # arg is None for **kwargs
                if keyword.arg is not None and keyword.arg not in fields[name]:
                    errors.append(
                        f"{doc.relative_to(REPO)}: python fence #{index} "
                        f"passes {keyword.arg}= to {name}, which has no "
                        f"such field or parameter")
    return errors


def check_imports() -> list:
    import importlib

    errors = []
    for module_name, names in PUBLIC_SURFACE.items():
        try:
            module = importlib.import_module(module_name)
        except Exception as error:  # noqa: BLE001 - report, don't crash
            errors.append(f"import {module_name} failed: {error}")
            continue
        for name in names:
            if not hasattr(module, name):
                errors.append(f"{module_name} is missing documented "
                              f"name {name!r}")
    return errors


def main() -> int:
    errors = (check_links() + check_python_fences() + check_imports()
              + check_config_keywords())
    for error in errors:
        print(f"ERROR: {error}")
    checked = ", ".join(str(d.relative_to(REPO)) for d in DOC_FILES)
    if errors:
        print(f"\n{len(errors)} documentation problem(s) in: {checked}")
        return 1
    print(f"docs OK: links, python fences, public imports and config / "
          f"engine / detect keywords verified ({checked})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
