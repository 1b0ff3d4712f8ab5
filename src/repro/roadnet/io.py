"""Serialization of road networks to a simple edge-list text format.

The format is line oriented and self-describing:

* ``N node_id x y`` — one line per intersection
* ``E segment_id start_node end_node length_m speed_limit_mps road_type`` —
  one line per directed segment

This lets users plug in real road networks (for example exported from
OpenStreetMap with an external tool) without this library needing network
access.
"""

from __future__ import annotations

from typing import Union

from ..exceptions import RoadNetworkError
from .graph import RoadNetwork

PathLike = Union[str, "os.PathLike[str]"]


def save_edge_list(network: RoadNetwork, path: PathLike) -> None:
    """Write a network to ``path`` in the edge-list format."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("# repro road network v1\n")
        for node in sorted(network.intersections(), key=lambda n: n.node_id):
            handle.write(f"N {node.node_id} {node.x:.6f} {node.y:.6f}\n")
        for segment in sorted(network.segments(), key=lambda s: s.segment_id):
            handle.write(
                f"E {segment.segment_id} {segment.start_node} {segment.end_node} "
                f"{segment.length_m:.6f} {segment.speed_limit_mps:.6f} "
                f"{segment.road_type}\n"
            )


def load_edge_list(path: PathLike) -> RoadNetwork:
    """Read a network previously written by :func:`save_edge_list`."""
    network = RoadNetwork()
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            kind = parts[0]
            try:
                if kind == "N":
                    network.add_intersection(int(parts[1]), float(parts[2]), float(parts[3]))
                elif kind == "E":
                    network.add_segment(
                        int(parts[1]), int(parts[2]), int(parts[3]),
                        length_m=float(parts[4]),
                        speed_limit_mps=float(parts[5]),
                        road_type=int(parts[6]),
                    )
                else:
                    raise RoadNetworkError(
                        f"unknown record type {kind!r} at line {line_number}"
                    )
            except (IndexError, ValueError) as exc:
                raise RoadNetworkError(
                    f"malformed line {line_number} in {path}: {line!r}"
                ) from exc
    return network
