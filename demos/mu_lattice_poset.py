#!/usr/bin/env python3
"""The reducibility diagram of the roots-of-unity sets mu_d for d | 12.

X^(a/b) maps mu_a onto mu_b exactly when b divides a, and nothing else
reduces between these classes, so the diagram must come out as reverse
inclusion.  The script builds the poset from scratch, prints the relation,
and writes a DOT file next to this script.

Run with:  python3 demos/mu_lattice_poset.py
"""
import os

from polyred import build_poset, make_field, roots_of_unity

F = make_field(12)
DIVISORS = (1, 2, 3, 4, 6, 12)

sets = {f"mu{d}": roots_of_unity(F, d) for d in DIVISORS}
report = build_poset(sets)

print("classes:")
for node in report.nodes:
    extra = f", chi={node['chi']}" if node["chi"] is not None else ""
    print(f"  {node['label']} (n={node['n']}{extra})")

print("\nfull relation (source reduces onto target):")
for e in report.relation:
    print(f"  {e['source']} -> {e['target']}  (degree {e['degree']})")

# sanity: the relation is exactly divisibility of the indices
want = {(f"mu{a}", f"mu{b}") for a in DIVISORS for b in DIVISORS
        if a != b and a % b == 0}
got = {(e["source"], e["target"]) for e in report.relation}
print("\nmatches reverse inclusion:", got == want)

print("\ndiagram edges (transitive reduction):")
for e in report.edges:
    print(f"  {e['source']} -> {e['target']}")

out = os.path.join(os.path.dirname(__file__), "mu_lattice.dot")
with open(out, "w", encoding="utf-8") as fh:
    fh.write(report.to_dot())
print(f"\nwrote {out} (render with: dot -Tpng {out} -o mu_lattice.png)")
