"""Edge-list IO in the KONECT / SNAP style used by the paper's datasets.

The paper's seven graphs are distributed as whitespace-separated edge lists
with ``%`` (KONECT) or ``#`` (SNAP) comment lines.  :func:`read_edge_list`
accepts both, optionally relabels arbitrary integer ids to the compact range
``0..n-1``, and returns a :class:`~repro.graph.graph.Graph` plus the id
mapping so results can be reported in the original id space.
"""

from __future__ import annotations

import os
from typing import IO, Iterable

import numpy as np

from repro.exceptions import GraphFormatError
from repro.graph.graph import DanglingPolicy, Graph

__all__ = ["read_edge_list", "write_edge_list"]

_COMMENT_PREFIXES = ("#", "%")


def _parse_lines(lines: Iterable[str]) -> tuple[list[int], list[int]]:
    src: list[int] = []
    dst: list[int] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith(_COMMENT_PREFIXES):
            continue
        parts = line.split()
        if len(parts) < 2:
            raise GraphFormatError(
                f"line {lineno}: expected at least two columns, got {line!r}"
            )
        try:
            u = int(parts[0])
            v = int(parts[1])
        except ValueError as exc:
            raise GraphFormatError(
                f"line {lineno}: non-integer node id in {line!r}"
            ) from exc
        src.append(u)
        dst.append(v)
    return src, dst


def read_edge_list(
    path_or_file: str | os.PathLike | IO[str],
    n: int | None = None,
    relabel: bool = True,
    dangling: DanglingPolicy = "selfloop",
) -> tuple[Graph, np.ndarray]:
    """Read a directed edge list and return ``(graph, original_ids)``.

    Parameters
    ----------
    path_or_file:
        Path to a text file, or an open text file object.
    n:
        Number of nodes.  Required when ``relabel`` is false and ids are
        already compact; inferred otherwise.
    relabel:
        When true (default), arbitrary integer ids are mapped onto
        ``0..n-1`` in sorted order; ``original_ids[i]`` recovers the
        original id of compact node ``i``.
    dangling:
        Dangling-node policy for the resulting graph.  Real edge lists
        routinely contain sink pages/users, so the default is
        ``"selfloop"`` rather than ``"error"``.

    Returns
    -------
    graph:
        The parsed :class:`Graph`.
    original_ids:
        Length-``n`` array mapping compact node ids back to input ids.
    """
    if hasattr(path_or_file, "read"):
        src_list, dst_list = _parse_lines(path_or_file)  # type: ignore[arg-type]
    else:
        with open(path_or_file, "r", encoding="utf-8") as handle:
            src_list, dst_list = _parse_lines(handle)

    if not src_list:
        raise GraphFormatError("edge list contains no edges")

    src = np.asarray(src_list, dtype=np.int64)
    dst = np.asarray(dst_list, dtype=np.int64)

    if relabel:
        original_ids, inverse = np.unique(
            np.concatenate([src, dst]), return_inverse=True
        )
        src = inverse[: src.size]
        dst = inverse[src.size :]
        node_count = original_ids.size
        if n is not None and n < node_count:
            raise GraphFormatError(
                f"n={n} is smaller than the {node_count} distinct node ids "
                "in the edge list"
            )
        if n is not None and n > node_count:
            # Caller wants isolated trailing nodes; extend the id map.
            extra = np.arange(node_count, n, dtype=np.int64)
            original_ids = np.concatenate([original_ids, extra])
            node_count = n
    else:
        node_count = n if n is not None else int(max(src.max(), dst.max())) + 1
        original_ids = np.arange(node_count, dtype=np.int64)

    graph = Graph(node_count, src, dst, dangling=dangling)
    return graph, original_ids


def write_edge_list(
    graph: Graph,
    path_or_file: str | os.PathLike | IO[str],
    header: str | None = None,
) -> None:
    """Write ``graph`` as a whitespace-separated edge list.

    Parameters
    ----------
    graph:
        The graph to serialize.
    path_or_file:
        Destination path or open text file object.
    header:
        Optional comment emitted as a ``%`` line, KONECT style.
    """
    src, dst = graph.edges()

    def _write(handle: IO[str]) -> None:
        if header:
            handle.write(f"% {header}\n")
        handle.write(f"% nodes={graph.num_nodes} edges={graph.num_edges}\n")
        for u, v in zip(src.tolist(), dst.tolist()):
            handle.write(f"{u}\t{v}\n")

    if hasattr(path_or_file, "write"):
        _write(path_or_file)  # type: ignore[arg-type]
    else:
        with open(path_or_file, "w", encoding="utf-8") as handle:
            _write(handle)
