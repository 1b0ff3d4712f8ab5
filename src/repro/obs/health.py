"""Declarative SLO rules evaluated over recorded scrape series.

A ruleset is plain text, one rule per line (``#`` comments allowed), and
every rule reads only a :class:`~repro.obs.timeseries.SeriesStore` — the
verdict is computed from scraped metrics alone, never from privileged
in-process state. The soak harness, the ``/healthz`` endpoint and
``repro report`` all evaluate the same rules the same way.

Rule syntax (``metric`` may carry a label selector, ``name{k="v"}``, which
matches every series whose labels contain it; every rule but a
selector-less ``ceiling`` sums the matches)::

    samples min=8                       # the series itself is real
    zero repro_bus_gaps_total           # final label-summed value == 0
    ceiling repro_shard_queue_depth max=1024      # never exceeds max
    throughput repro_gateway_raw_points_total flatness=0.8 windows=5
    quantile repro_stage_latency_seconds{stage="engine_tick"} q=0.99 max=5.0
    slope repro_process_rss_bytes max_growth=0.25 skip=0.25
    equal repro_gateway_sessions_total{event="closed"} repro_service_results_delivered_total

* ``throughput`` — per-window counter rates; the **last** window's rate
  must stay within ``flatness`` of the **peak** window's (optionally also
  above an absolute ``min_rate``). The flat-throughput soak criterion.
* ``quantile`` — per-window histogram-delta quantile; the worst window
  with at least ``min_count`` observations must stay under ``max``.
* ``slope`` — least-squares growth of a gauge over the run (warmup
  fraction ``skip`` discarded): total fitted growth relative to the mean
  must stay under ``max_growth``. The bounded-memory criterion.
* ``equal`` — the final label-summed values of two series are equal (a
  missing one fails): a conservation law, judged on a drained run only
  (:attr:`SloRule.final`; a live probe skips it).

Window rules *pass vacuously* when the series is too short to evaluate
them (a liveness probe early in a run should not page); pair every
ruleset with a ``samples`` rule so a final verdict can never go green on
an empty recording.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

from .timeseries import SeriesStore

__all__ = [
    "HealthReport",
    "RuleResult",
    "SloRule",
    "default_soak_rules",
    "evaluate_rules",
    "parse_rules",
]

_METRIC_PATTERN = re.compile(
    r"^(?P<name>[A-Za-z_:][A-Za-z0-9_:]*)(\{(?P<labels>[^}]*)\})?$")


class RuleResult(NamedTuple):
    """One rule's verdict: the rule text, pass/fail, and what was seen."""

    rule: str
    passed: bool
    observed: str

    def as_dict(self) -> dict:
        return {"rule": self.rule, "passed": self.passed,
                "observed": self.observed}


@dataclass
class HealthReport:
    """Every rule's result plus the overall verdict."""

    results: List[RuleResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(result.passed for result in self.results)

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def format(self) -> str:
        lines = [f"SLO health: {'GREEN' if self.passed else 'RED'} "
                 f"({sum(r.passed for r in self.results)}/"
                 f"{len(self.results)} rules pass)"]
        for result in self.results:
            mark = "ok " if result.passed else "FAIL"
            lines.append(f"  [{mark}] {result.rule}  ->  {result.observed}")
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {"status": self.verdict, "passed": self.passed,
                "checks": [result.as_dict() for result in self.results]}


def _parse_metric(text: str) -> Tuple[str, Dict[str, str]]:
    match = _METRIC_PATTERN.match(text)
    if not match:
        raise ValueError(f"bad metric reference: {text!r}")
    labels: Dict[str, str] = {}
    label_text = match.group("labels")
    if label_text:
        for part in label_text.split(","):
            part = part.strip()
            if not part:
                continue
            key, eq, value = part.partition("=")
            if not eq:
                raise ValueError(f"bad label selector in: {text!r}")
            labels[key.strip()] = value.strip().strip('"').strip("'")
    return match.group("name"), labels


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "absent"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6g}"


@dataclass
class SloRule:
    """One parsed rule; ``evaluate`` turns a recorded series into a verdict."""

    kind: str
    metric: str = ""
    labels: Dict[str, str] = field(default_factory=dict)
    params: Dict[str, float] = field(default_factory=dict)
    other: str = ""  # an ``equal`` rule's second series, as written

    @property
    def final(self) -> bool:  # judged on a drained run only
        return self.kind == "equal"

    @property
    def spec(self) -> str:
        metric = self.metric
        if self.labels:
            inner = ",".join(f'{k}="{v}"' for k, v in sorted(self.labels.items()))
            metric += "{" + inner + "}"
        parts = [self.kind] + [part for part in (metric, self.other) if part]
        parts += [f"{key}={_fmt(value)}" for key, value in self.params.items()]
        return " ".join(parts)

    # ------------------------------------------------------------ evaluation
    def evaluate(self, store: SeriesStore) -> RuleResult:
        handler = getattr(self, f"_eval_{self.kind}")
        passed, observed = handler(store)
        return RuleResult(self.spec, passed, observed)

    def _eval_samples(self, store: SeriesStore) -> Tuple[bool, str]:
        minimum = self.params.get("min", 2)
        count = len(store)
        return count >= minimum, (f"{count} scrape(s) recorded over "
                                  f"{store.duration_s:.1f}s")

    def _eval_zero(self, store: SeriesStore) -> Tuple[bool, str]:
        value = store.value(self.metric, self.labels)
        if value is None:
            return False, "metric absent from the final scrape"
        return value == 0, f"final value {_fmt(value)}"

    def _eval_equal(self, store: SeriesStore) -> Tuple[bool, str]:
        series = [(self.metric, self.labels), _parse_metric(self.other)]
        left, right = (store.value(*each) for each in series)
        if left is None or right is None:
            absent = series[left is not None][0]
            return False, f"{absent} absent from the final scrape"
        return left == right, f"final values {_fmt(left)} and {_fmt(right)}"

    def _eval_ceiling(self, store: SeriesStore) -> Tuple[bool, str]:
        maximum = self.params["max"]
        if self.labels:
            series = store.series(self.metric, self.labels)
            observed = max((value for _, value in series), default=None)
        else:
            observed = store.max_over_time(self.metric)
        if observed is None:
            return False, "metric absent from every scrape"
        return observed <= maximum, (f"max {_fmt(observed)} "
                                     f"(ceiling {_fmt(maximum)})")

    def _eval_throughput(self, store: SeriesStore) -> Tuple[bool, str]:
        flatness = self.params.get("flatness", 0.8)
        windows = int(self.params.get("windows", 5))
        min_rate = self.params.get("min_rate", 0.0)
        rates = store.rate_windows(self.metric, windows)
        if len(rates) < 2:
            return True, "insufficient windows (vacuous pass)"
        peak = max(window.rate for window in rates)
        last = rates[-1].rate
        if peak <= 0:
            return False, "counter never advanced"
        ratio = last / peak
        passed = ratio >= flatness and last >= min_rate
        return passed, (f"last window {last:.1f}/s vs peak {peak:.1f}/s "
                        f"({ratio:.2f}x, floor {flatness:.2f}x)")

    def _eval_quantile(self, store: SeriesStore) -> Tuple[bool, str]:
        q = self.params.get("q", 0.99)
        maximum = self.params["max"]
        windows = int(self.params.get("windows", 5))
        min_count = self.params.get("min_count", 1)
        worst: Optional[float] = None
        evaluated = 0
        for start, end in store.window_bounds(windows):
            if store.histogram_count(self.metric, self.labels,
                                     start, end) < min_count:
                continue
            value = store.histogram_quantile(q, self.metric, self.labels,
                                             start, end)
            if value is None:
                continue
            evaluated += 1
            if worst is None or value > worst:
                worst = value
        if worst is None:
            # Nothing observed per-window; fall back to the whole run.
            worst = store.histogram_quantile(q, self.metric, self.labels)
            if worst is None:
                return True, "no observations (vacuous pass)"
            evaluated = 1
        return worst <= maximum, (f"worst p{int(q * 100)} {worst:.4g}s over "
                                  f"{evaluated} window(s) "
                                  f"(ceiling {_fmt(maximum)})")

    def _eval_slope(self, store: SeriesStore) -> Tuple[bool, str]:
        max_growth = self.params.get("max_growth", 0.25)
        skip = self.params.get("skip", 0.25)
        series = store.series(self.metric, self.labels)
        series = series[int(len(series) * skip):]
        if len(series) < 3:
            return True, "insufficient samples (vacuous pass)"
        # Least-squares fit value = a + b * t over the post-warmup series.
        n = len(series)
        t0 = series[0][0]
        ts = [t - t0 for t, _ in series]
        vs = [v for _, v in series]
        mean_t = sum(ts) / n
        mean_v = sum(vs) / n
        var_t = sum((t - mean_t) ** 2 for t in ts)
        if var_t == 0 or mean_v == 0:
            return True, "flat series"
        slope = sum((t - mean_t) * (v - mean_v)
                    for t, v in zip(ts, vs)) / var_t
        growth = slope * (ts[-1] - ts[0]) / abs(mean_v)
        return growth <= max_growth, (f"fitted growth {growth:+.1%} over "
                                      f"{ts[-1] - ts[0]:.0f}s "
                                      f"(ceiling {max_growth:+.1%})")


_RULE_KINDS = {"samples", "zero", "ceiling", "throughput", "quantile",
               "slope", "equal"}
_NO_METRIC_KINDS = {"samples"}
_REQUIRED_PARAMS = {"ceiling": ("max",), "quantile": ("max",)}


def parse_rule(line: str) -> SloRule:
    """Parse one rule line into its :class:`SloRule`."""
    tokens = line.split()
    if not tokens:
        raise ValueError("empty rule")
    kind = tokens[0]
    if kind not in _RULE_KINDS:
        raise ValueError(f"unknown rule kind {kind!r}; "
                         f"kinds are {', '.join(sorted(_RULE_KINDS))}")
    rest = tokens[1:]
    metric, labels = "", {}
    if kind not in _NO_METRIC_KINDS:
        if not rest:
            raise ValueError(f"rule {kind!r} needs a metric")
        metric, labels = _parse_metric(rest[0])
        rest = rest[1:]
    other = ""
    if kind == "equal":
        if not rest:
            raise ValueError("rule 'equal' needs two metrics")
        _parse_metric(rest[0])  # checked here, kept as written
        other, rest = rest[0], rest[1:]
    params: Dict[str, float] = {}
    for token in rest:
        key, eq, value = token.partition("=")
        if not eq:
            raise ValueError(f"bad parameter {token!r} in rule {line!r}")
        try:
            params[key] = float(value)
        except ValueError:
            raise ValueError(f"parameter {key}={value!r} is not a number")
    for required in _REQUIRED_PARAMS.get(kind, ()):
        if required not in params:
            raise ValueError(f"rule {kind!r} needs {required}=...")
    return SloRule(kind=kind, metric=metric, labels=labels, params=params,
                   other=other)


def parse_rules(text: str) -> List[SloRule]:
    """Parse a ruleset: one rule per line, ``#`` comments and blanks skipped."""
    rules = []
    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if line:
            rules.append(parse_rule(line))
    return rules


def evaluate_rules(store: SeriesStore,
                   rules: List[SloRule]) -> HealthReport:
    """Evaluate every rule over one recorded series."""
    return HealthReport([rule.evaluate(store) for rule in rules])


def default_soak_rules(
    queue_depth: int = 1024,
    flatness: float = 0.8,
    windows: int = 5,
    rss_growth: float = 0.25,
    stage_p99_ceiling_s: float = 5.0,
    min_samples: int = 8,
) -> List[SloRule]:
    """The soak harness's default ruleset, as parsed rules.

    Renders through :attr:`SloRule.spec` back into the textual syntax, so
    the ruleset the soak enforces is also its own documentation (and is
    written next to every recording for ``repro report`` to re-evaluate).
    """
    text = f"""
    # The recording itself must be real before anything can pass.
    samples min={min_samples}
    # Zero result loss: the facade's sequence-gap detector never fired.
    zero repro_bus_gaps_total
    # Flat throughput: the last window holds >= {flatness}x the peak rate.
    throughput repro_gateway_raw_points_total flatness={flatness} windows={windows}
    # Bounded queues and buffers (leaks show up here before they OOM).
    ceiling repro_shard_queue_depth max={queue_depth}
    ceiling repro_gateway_reorder_buffered max={queue_depth}
    ceiling repro_service_results_pending max={queue_depth}
    # Stage latency: worst per-window p99 of the end-of-pipe stage.
    quantile repro_stage_latency_seconds{{stage="engine_tick"}} q=0.99 max={stage_p99_ceiling_s} windows={windows}
    # Bounded memory: fitted RSS growth after warmup stays small.
    slope repro_process_rss_bytes max_growth={rss_growth} skip=0.25
    # Every session the gateway closed was delivered at the facade.
    equal repro_gateway_sessions_total{{event="closed"}} repro_service_results_delivered_total
    """
    return parse_rules(text)
