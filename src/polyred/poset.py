"""The reducibility diagram of a family of labeled finite sets.

build_poset quotients the sets by equivalence (canonical invariant), finds a
lowest-degree witness for every pair of classes of different sizes, and
returns the strict relation with its transitive reduction as a PosetReport,
which renders as JSON or DOT.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .classes import canonical_invariant
from .reduction import find_reductions, singleton_reduction, stabilizer


def _dot_string(text: str) -> str:
    """text as a DOT double-quoted string, with backslash and quote escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


@dataclass
class PosetReport:
    """Class nodes, the full strict relation, and its transitive reduction."""

    nodes: list
    relation: list
    edges: list

    def to_json_obj(self) -> dict:
        return {"nodes": self.nodes, "relation": self.relation,
                "edges": self.edges}

    def to_dot(self) -> str:
        lines = ["digraph reducibility {", "  rankdir=TB;"]
        for node in self.nodes:
            if node["chi"] is not None:
                text = f"{node['label']} (n={node['n']}, chi={node['chi']})"
            else:
                text = f"{node['label']} (n={node['n']})"
            lines.append(f'  {_dot_string(node["label"])} [label={_dot_string(text)}];')
        for e in self.edges:
            lines.append(f'  {_dot_string(e["source"])} -> {_dot_string(e["target"])}'
                         f' [label="deg {e["degree"]}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_poset(sets: dict) -> PosetReport:
    """Quotient the labeled sets by equivalence, then compute the relation.

    Nodes are classes, found by invariant value, in the order of their least
    member label, the representative.  An edge records the lowest-degree
    witness found; it needs no re-verification, since find_reductions and
    singleton_reduction build a Reduction only from a passing fiber
    certificate of (P, A, target).  Reducibility is transitive, so the
    relation is closed and the diagram edges are the non-composite pairs.
    """
    if not sets:
        raise ValueError("poset needs at least one set")
    classes: dict = {}  # invariant -> its labels, ascending
    for label in sorted(sets):
        classes.setdefault(canonical_invariant(sets[label]), []).append(label)
    nodes = []
    for inv, labels in classes.items():  # in the order of least labels
        A = sets[labels[0]]
        n = len(A)
        chi = exceptional = None
        if n >= 3:  # chi = n!/|G_A| and exceptionality share one search
            order = stabilizer(A).order
            chi, exceptional = math.factorial(n) // order, order > 1
        nodes.append({
            "label": labels[0],
            "members": labels,
            "n": n,
            "invariant": inv.to_json_obj(),
            "chi": chi,
            "exceptional": exceptional,
        })
    reps = [node["label"] for node in nodes]
    relation = []
    succ: dict = {rep: set() for rep in reps}
    for ra in reps:
        A = sets[ra]
        for rb in reps:
            if ra == rb or len(sets[rb]) >= len(A):
                continue
            B = sets[rb]
            if len(B) == 1:
                wit = singleton_reduction(A, B[0])
            else:
                found = find_reductions(A, B, first_only=True)
                if not found:
                    continue
                wit = found[0]
            relation.append({"source": ra, "target": rb, "degree": wit.gamma,
                             "witness": wit.poly.encode()})
            succ[ra].add(rb)
    edges = [e for e in relation
             if not any(e["target"] in succ[w]
                        for w in succ[e["source"]] if w != e["target"])]
    key = lambda e: (e["source"], e["target"])
    return PosetReport(nodes, sorted(relation, key=key), sorted(edges, key=key))
