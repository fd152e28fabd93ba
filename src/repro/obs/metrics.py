"""Process-global metrics registry with Prometheus-text exposition.

Three thread-safe primitives — :class:`Counter`, :class:`Gauge`, and
:class:`Histogram` (fixed log-spaced buckets, because serving
latencies are long-tailed) — live
behind labeled *families* in a :class:`Registry`:

    registry = get_registry()
    sweeps = registry.histogram(
        "repro_sweep_seconds", "Per-shard sweep wall time.",
        labelnames=("shard", "backend"),
    )
    sweeps.labels(shard="2", backend="numpy").observe(0.004)

``registry.expose()`` renders the Prometheus text format (no client
library involved) and ``registry.snapshot()`` the equivalent JSON
document; :func:`parse_prometheus_text` round-trips the former so
tests and the ``repro obs`` CLI can validate dumps without new
dependencies.

Metrics default **on** and cost one lock + int/float update per event;
``REPRO_METRICS=0`` turns every ``inc``/``set``/``observe`` into a
single attribute check.
"""

from __future__ import annotations

import json
import math
import os
import re
import threading

__all__ = [
    "METRICS_ENV_VAR",
    "METRICS_SCHEMA",
    "Counter",
    "Gauge",
    "Histogram",
    "Registry",
    "default_buckets",
    "get_registry",
    "metrics_enabled",
    "parse_prometheus_text",
    "set_metrics_enabled",
]

METRICS_ENV_VAR = "REPRO_METRICS"
METRICS_SCHEMA = "repro-metrics/1"

_FALSY = {"0", "false", "off", "no"}

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _env_enabled() -> bool:
    raw = os.environ.get(METRICS_ENV_VAR)
    if raw is None:
        return True
    return raw.strip().lower() not in _FALSY


_enabled = _env_enabled()


def metrics_enabled() -> bool:
    """Whether metric updates are recorded (``REPRO_METRICS`` gate)."""

    return _enabled


def set_metrics_enabled(on: bool | None) -> None:
    """Force metrics on/off; ``None`` re-reads ``REPRO_METRICS``."""

    global _enabled
    _enabled = _env_enabled() if on is None else bool(on)


def default_buckets(
    low: float = 1e-4, high: float = 60.0, count: int = 20
) -> tuple[float, ...]:
    """Fixed log-spaced bucket edges (seconds), static so every process
    exports comparable buckets."""

    if count < 1 or low <= 0 or high <= low:
        raise ValueError("need count >= 1 and 0 < low < high")
    ratio = (high / low) ** (1.0 / (count - 1)) if count > 1 else 1.0
    return tuple(low * ratio**i for i in range(count))


class Counter:
    """Monotonically increasing float, one per label set."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if not _enabled:
            return
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """Float that can go up, down, or be set outright."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        if not _enabled:
            return
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if not _enabled:
            return
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed-bucket histogram with cumulative Prometheus semantics."""

    __slots__ = ("_buckets", "_counts", "_count", "_lock", "_sum")

    def __init__(self, buckets: tuple[float, ...]) -> None:
        self._buckets = buckets
        self._counts = [0] * (len(buckets) + 1)  # trailing +Inf bucket
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        if not _enabled:
            return
        index = len(self._buckets)
        for i, edge in enumerate(self._buckets):
            if value <= edge:
                index = i
                break
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def buckets(self) -> tuple[float, ...]:
        return self._buckets

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def count(self) -> int:
        return self._count

    def cumulative(self) -> list[int]:
        """Bucket counts as cumulative ``le`` totals (last is +Inf)."""

        with self._lock:
            out, running = [], 0
            for count in self._counts:
                running += count
                out.append(running)
            return out


def _check_labels(labelnames: tuple[str, ...]) -> tuple[str, ...]:
    names = tuple(labelnames)
    for name in names:
        if not _LABEL_RE.match(name):
            raise ValueError(f"invalid label name {name!r}")
    if len(set(names)) != len(names):
        raise ValueError("duplicate label names")
    return names


class Family:
    """One named metric: a map of label-value tuples to children.

    Unlabeled families proxy ``inc``/``set``/``observe`` straight to
    their single anonymous child so call sites stay terse.
    """

    def __init__(
        self,
        name: str,
        help_text: str,
        kind: str,
        labelnames: tuple[str, ...],
        make_child,
    ) -> None:
        self.name = name
        self.help = help_text
        self.kind = kind
        self.labelnames = labelnames
        self._make_child = make_child
        self._children: dict[tuple[str, ...], object] = {}
        self._lock = threading.Lock()

    def labels(self, **labels: object):
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name} expects labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[name]) for name in self.labelnames)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.setdefault(key, self._make_child())
        return child

    def _solo(self):
        if self.labelnames:
            raise ValueError(f"{self.name} is labeled; call .labels() first")
        return self.labels()

    # -- unlabeled conveniences -------------------------------------------

    def inc(self, amount: float = 1.0) -> None:
        self._solo().inc(amount)

    def set(self, value: float) -> None:
        self._solo().set(value)

    def dec(self, amount: float = 1.0) -> None:
        self._solo().dec(amount)

    def observe(self, value: float) -> None:
        self._solo().observe(value)

    @property
    def value(self) -> float:
        return self._solo().value

    def children(self) -> dict[tuple[str, ...], object]:
        with self._lock:
            return dict(self._children)


class Registry:
    """Process-wide home for metric families.

    ``counter``/``gauge``/``histogram`` are get-or-create: asking twice
    for the same name returns the same family (and raises if the second
    ask disagrees on kind or labels), so modules can register lazily
    without coordinating import order.
    """

    def __init__(self) -> None:
        self._families: dict[str, Family] = {}
        self._lock = threading.Lock()

    def _family(
        self,
        name: str,
        help_text: str,
        kind: str,
        labelnames: tuple[str, ...],
        make_child,
    ) -> Family:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        labelnames = _check_labels(labelnames)
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind != kind or family.labelnames != labelnames:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{family.kind}{family.labelnames}"
                    )
                return family
            family = Family(name, help_text, kind, labelnames, make_child)
            self._families[name] = family
            return family

    def counter(
        self, name: str, help_text: str = "", labelnames: tuple[str, ...] = ()
    ) -> Family:
        return self._family(name, help_text, "counter", labelnames, Counter)

    def gauge(
        self, name: str, help_text: str = "", labelnames: tuple[str, ...] = ()
    ) -> Family:
        return self._family(name, help_text, "gauge", labelnames, Gauge)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labelnames: tuple[str, ...] = (),
        buckets: tuple[float, ...] | None = None,
    ) -> Family:
        edges = tuple(buckets) if buckets is not None else default_buckets()
        if list(edges) != sorted(edges) or len(set(edges)) != len(edges):
            raise ValueError("histogram buckets must be strictly increasing")
        return self._family(
            name, help_text, "histogram", labelnames,
            lambda: Histogram(edges),
        )

    def families(self) -> dict[str, Family]:
        with self._lock:
            return dict(self._families)

    def reset(self) -> None:
        """Drop every family (tests and fresh measurement runs)."""

        with self._lock:
            self._families.clear()

    # -- exposition --------------------------------------------------------

    def expose(self) -> str:
        """Render the registry in the Prometheus text format."""

        lines: list[str] = []
        registered = self.families()
        for name in sorted(registered):
            family = registered[name]
            if family.help:
                lines.append(f"# HELP {name} {_escape_help(family.help)}")
            lines.append(f"# TYPE {name} {family.kind}")
            for key, child in sorted(family.children().items()):
                labels = dict(zip(family.labelnames, key))
                if family.kind == "histogram":
                    edges = child.buckets
                    for edge, cum in zip(
                        (*edges, math.inf), child.cumulative()
                    ):
                        le = "+Inf" if math.isinf(edge) else _format(edge)
                        lines.append(
                            f"{name}_bucket"
                            f"{_render_labels({**labels, 'le': le})} {cum}"
                        )
                    lines.append(
                        f"{name}_sum{_render_labels(labels)} "
                        f"{_format(child.sum)}"
                    )
                    lines.append(
                        f"{name}_count{_render_labels(labels)} {child.count}"
                    )
                else:
                    lines.append(
                        f"{name}{_render_labels(labels)} "
                        f"{_format(child.value)}"
                    )
        return "\n".join(lines) + "\n" if lines else ""

    def snapshot(self) -> dict:
        """JSON-ready mirror of :meth:`expose`."""

        families = {}
        registered = self.families()
        for name in sorted(registered):
            family = registered[name]
            samples = []
            for key, child in sorted(family.children().items()):
                labels = dict(zip(family.labelnames, key))
                if family.kind == "histogram":
                    samples.append(
                        {
                            "labels": labels,
                            "buckets": list(child.buckets),
                            "counts": child.cumulative(),
                            "sum": child.sum,
                            "count": child.count,
                        }
                    )
                else:
                    samples.append({"labels": labels, "value": child.value})
            families[name] = {
                "type": family.kind,
                "help": family.help,
                "samples": samples,
            }
        return {"schema": METRICS_SCHEMA, "families": families}


def _format(value: float) -> str:
    if value == math.floor(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _render_labels(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{key}="{_escape_label(str(value))}"'
        for key, value in sorted(labels.items())
    )
    return "{" + body + "}"


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>[^\s]+)\s*$"
)
_LABEL_PAIR_RE = re.compile(
    r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"'
)


def parse_prometheus_text(text: str) -> dict:
    """Parse Prometheus text exposition into ``{name: family_dict}``.

    Each family dict has ``type``, ``help``, and ``samples`` — a list of
    ``(sample_name, labels, value)`` triples.  Raises :class:`ValueError`
    on any malformed line, which is exactly what the round-trip tests
    and the ``repro obs`` CLI want: a strict syntax check with no
    dependency on a real Prometheus client.
    """

    families: dict[str, dict] = {}

    def family(name: str) -> dict:
        return families.setdefault(
            name, {"type": None, "help": "", "samples": []}
        )

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            parts = line[len("# HELP ") :].split(None, 1)
            if not parts:
                raise ValueError(f"line {lineno}: malformed HELP")
            family(parts[0])["help"] = parts[1] if len(parts) > 1 else ""
            continue
        if line.startswith("# TYPE "):
            parts = line[len("# TYPE ") :].split()
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: malformed TYPE")
            name, kind = parts
            if kind not in {"counter", "gauge", "histogram", "summary",
                            "untyped"}:
                raise ValueError(f"line {lineno}: unknown type {kind!r}")
            family(name)["type"] = kind
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ValueError(f"line {lineno}: malformed sample {line!r}")
        sample_name = match.group("name")
        labels: dict[str, str] = {}
        label_body = match.group("labels")
        if label_body:
            consumed = 0
            for pair in _LABEL_PAIR_RE.finditer(label_body):
                labels[pair.group("key")] = (
                    pair.group("value")
                    .replace('\\"', '"')
                    .replace("\\n", "\n")
                    .replace("\\\\", "\\")
                )
                consumed += pair.end() - pair.start()
            stripped = re.sub(_LABEL_PAIR_RE, "", label_body).replace(",", "")
            if stripped.strip():
                raise ValueError(
                    f"line {lineno}: malformed labels {label_body!r}"
                )
        value_text = match.group("value")
        if value_text == "+Inf":
            value = math.inf
        elif value_text == "-Inf":
            value = -math.inf
        elif value_text == "NaN":
            value = math.nan
        else:
            try:
                value = float(value_text)
            except ValueError as error:
                raise ValueError(
                    f"line {lineno}: bad value {value_text!r}"
                ) from error
        base = sample_name
        for suffix in ("_bucket", "_sum", "_count"):
            trimmed = sample_name[: -len(suffix)]
            if sample_name.endswith(suffix) and trimmed in families:
                base = trimmed
                break
        family(base)["samples"].append((sample_name, labels, value))
    return families


_default_registry = Registry()


def get_registry() -> Registry:
    """The process-global registry every subsystem reports into."""

    return _default_registry


def snapshot_json(indent: int | None = None) -> str:
    return json.dumps(_default_registry.snapshot(), indent=indent)
