"""Documentation checks run by the CI docs job.

Seven checks, no third-party dependencies beyond the library's own:

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
   is a parameter of ``StreamEngine.__init__``, every keyword it passes to
   ``detect(...)`` is a parameter of ``OnlineDetector.detect``, and every
   keyword it passes to ``detector(...)`` is a parameter of
   ``RL4OASDModel.detector`` or ``OnlineLearner.detector``, so an example
   naming a deleted option fails although it still compiles.
5. **Class attributes** — every backticked ``Class.attr`` in the docs whose
   ``Class`` is a class a ``PUBLIC_SURFACE`` module exposes names an
   attribute that class has: a method, property or class attribute, a
   dataclass or ``NamedTuple`` field, or an instance attribute its methods
   assign (``self.attr = ...``), so prose naming a deleted method fails.
6. **Stale ``__all__``** — every name in the ``__all__`` of every ``repro``
   module, and of every module of the paper harnesses' ``paper`` package
   (``benchmarks/quality/paper/``), is an attribute of that module, so a
   deleted name left behind fails although ``import`` still works
   (``from module import *`` would not).
7. **Unused imports** — every name a module-level import binds in
   ``src/`` or in the paper harnesses under ``benchmarks/quality/``
   (``__future__`` aside) is used in that module: read as a name, listed
   in its ``__all__``, or named in a quoted annotation.

Run locally with::

    PYTHONPATH=src python tools/check_docs.py
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import pkgutil
import re
import sys
import textwrap
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
QUALITY_DIR = REPO / "benchmarks" / "quality"
DOC_FILES = sorted((REPO / "docs").glob("*.md")) + [REPO / "README.md"]

LINK_PATTERN = re.compile(r"(?<!!)\[[^\]]+\]\(([^)\s]+)\)")
FENCE_PATTERN = re.compile(r"```python\n(.*?)```", re.DOTALL)
CODE_SPAN_PATTERN = re.compile(r"`([^`\n]+)`")
CLASS_ATTRIBUTE_PATTERN = re.compile(r"(?<!\w)([A-Z]\w*)\.([A-Za-z_]\w*)")

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
    "repro.core.decision": ["label_route", "greedy_choices",
                            "policy_choices", "sample_labels", "rnel_masks",
                            "rnel_fixed_batch"],
    "repro.serve": [
        "DetectionService", "serve_fleet", "shard_of",
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
    "repro.trajectory": ["RawTrajectory", "GPSPoint"],
    "repro.eval": ["evaluate_labelings", "LatencyReport"],
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
    from repro.core import (OnlineDetector, OnlineLearner, RL4OASDModel,
                            StreamEngine)
    from repro.serve import DetectionService

    fields = {name: {field.name for field in dataclasses.fields(cls)}
              for name, cls in vars(repro.config).items()
              if isinstance(cls, type) and dataclasses.is_dataclass(cls)}
    # Callables that forward **overrides to StreamEngine.__init__ accept
    # their own parameters plus the engine's.
    engine = _parameters(StreamEngine.__init__)
    fields["StreamEngine"] = engine
    for function in (StreamEngine.from_model, RL4OASDModel.stream_engine):
        fields[function.__name__] = _parameters(function) | engine
    # detection_service forwards **options to DetectionService.
    fields["DetectionService"] = _parameters(DetectionService.__init__)
    fields["detection_service"] = (
        _parameters(RL4OASDModel.detection_service)
        | fields["DetectionService"])
    fields["detect"] = _parameters(OnlineDetector.detect)
    fields["detector"] = (_parameters(RL4OASDModel.detector)
                          | _parameters(OnlineLearner.detector))
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


def _attributes(cls) -> set:
    """Every attribute name an instance of ``cls`` can have."""
    names = set(dir(cls))
    for klass in inspect.getmro(cls):
        if dataclasses.is_dataclass(klass):
            names.update(field.name for field in dataclasses.fields(klass))
        names.update(getattr(klass, "_fields", ()))
        try:
            tree = ast.parse(textwrap.dedent(inspect.getsource(klass)))
        except (OSError, TypeError):  # builtins have no source
            continue
        names.update(node.attr for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute)
                     and isinstance(node.ctx, ast.Store)
                     and isinstance(node.value, ast.Name)
                     and node.value.id == "self")
    return names


def check_class_attributes() -> list:
    attributes = {}  # class name -> attributes of every class so named
    for module_name in PUBLIC_SURFACE:
        try:
            module = importlib.import_module(module_name)
        except Exception:  # noqa: BLE001 - check_imports reports it
            continue
        for name, value in vars(module).items():
            if (not name.startswith("_") and inspect.isclass(value)
                    and value.__module__.startswith("repro")):
                attributes.setdefault(name, set()).update(_attributes(value))
    errors = []
    for doc in DOC_FILES:
        text = doc.read_text(encoding="utf-8")
        for span in CODE_SPAN_PATTERN.finditer(text):
            for match in CLASS_ATTRIBUTE_PATTERN.finditer(span.group(1)):
                name, attribute = match.groups()
                if name in attributes and attribute not in attributes[name]:
                    errors.append(f"{doc.relative_to(REPO)}: `{span.group(1)}` "
                                  f"names {name}.{attribute}, which {name} "
                                  f"does not have")
    return errors


def check_dunder_all() -> list:
    import repro

    sys.path.insert(0, str(QUALITY_DIR))
    import paper

    errors = []
    for info in [*pkgutil.walk_packages(repro.__path__, "repro."),
                 *pkgutil.walk_packages(paper.__path__, "paper.")]:
        if info.name.rsplit(".", 1)[-1] == "__main__":
            continue  # importing it would run the CLI
        try:
            module = importlib.import_module(info.name)
        except Exception as error:  # noqa: BLE001 - report, don't crash
            errors.append(f"import {info.name} failed: {error}")
            continue
        for name in getattr(module, "__all__", ()):
            if not hasattr(module, name):
                errors.append(f"{info.name}.__all__ names {name!r}, which "
                              f"the module does not define")
    return errors


def _module_imports(body):
    """The import statements of a module's top level, including those
    nested in top-level ``if`` / ``try`` blocks."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.If, ast.Try)):
            for block in (node.body, node.orelse,
                          getattr(node, "finalbody", []),
                          *(handler.body
                            for handler in getattr(node, "handlers", []))):
                yield from _module_imports(block)


def _used_names(tree) -> set:
    names, annotations = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and node.returns is not None):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            names.update(item.value for item in ast.walk(node.value)
                         if isinstance(item, ast.Constant)
                         and isinstance(item.value, str))
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    quoted = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                names.update(name.id for name in ast.walk(quoted)
                             if isinstance(name, ast.Name))
    return names


def check_unused_imports() -> list:
    errors = []
    for path in sorted([*(REPO / "src").rglob("*.py"),
                        *QUALITY_DIR.rglob("*.py")]):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = _used_names(tree)
        for node in _module_imports(tree.body):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound != "*" and bound not in used:
                    errors.append(f"{path.relative_to(REPO)}:{node.lineno} "
                                  f"imports {bound!r} and never uses it")
    return errors


def main() -> int:
    errors = (check_links() + check_python_fences() + check_imports()
              + check_config_keywords() + check_class_attributes()
              + check_dunder_all() + check_unused_imports())
    for error in errors:
        print(f"ERROR: {error}")
    checked = ", ".join(str(d.relative_to(REPO)) for d in DOC_FILES)
    if errors:
        print(f"\n{len(errors)} documentation problem(s) in: {checked}")
        return 1
    print(f"docs OK: links, python fences, public imports, config / "
          f"engine / detect / detector keywords, class attributes, "
          f"__all__ lists and src/ + benchmarks/quality/ imports verified "
          f"({checked})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
