"""From girth-6 incidence graphs to fitted growth exponents.

Build the shrinking instances over projective planes, verify their
constructed witnesses, project them through bundled substructure
certificates, and fit the resulting edge growth against vertex count.
"""

import sys
import time

from nrdkit import tables
from nrdkit.generators import build_R1S1_instance, build_R2S2_instance, gen_girth6, girth
from nrdkit.hypergraph import shrinking_report
from nrdkit.pipeline import apply_reduction, fit_exponent, fit_shrinkage

print("Girth-6 incidence graphs (projective plane over F_q):")
for q in (2, 3, 5):
    g = gen_girth6(q)
    n = sum(len(p) for p in g.parts)
    print(f"  q={q}: {n:4d} vertices, {len(g.edges):4d} edges, girth {girth(g)}")
print()

for builder, name, eps0 in ((build_R1S1_instance, "R1S1", "1/4"),
                            (build_R2S2_instance, "R2S2", "1/6")):
    pts = []
    for q in (2, 3, 5):
        inst = builder(q)
        rep = shrinking_report(inst.hypergraph)
        verified = ""
        if q <= 3:
            t0 = time.monotonic()
            res = inst.verify()
            if res is not None:
                sys.exit(f"{name} q={q}: witness check failed at edge "
                         f"{res.failed_edge} ({res.reason})")
            verified = f"  witnesses ok ({time.monotonic() - t0:.1f}s)"
        print(f"  {name} q={q}: m={inst.n_edges:5d}, "
              f"shrink factor {rep.shrink_factor:.0f}{verified}")
        pts.append((inst.n_edges, rep.shrink_factor))
    print(f"  fitted shrinkage exponent {fit_shrinkage(pts):.3f} "
          f"(target {eps0})")
    print()

print("Reduction pipelines (certificate applied across q = 2, 3, 5):")
for cert_name, builder, target in (("J1", build_R2S2_instance, "6/5"),
                                   ("P1Q1", build_R1S1_instance, "4/3")):
    cert = tables.certificate(cert_name)
    counts = []
    for q in (2, 3, 5):  # witnesses transferred and checked at q = 2, 3
        inst = builder(q)
        res = apply_reduction(inst.hypergraph, cert,
                              inst.witness if q <= 3 else None)
        tag = "verified" if res.verified else "counted"
        print(f"  {cert_name} q={q}: n={res.n_vertices:5d} "
              f"m={res.n_edges:6d} ({tag})")
        counts.append((res.n_vertices, res.n_edges))
    print(f"  fitted exponent {fit_exponent(counts).exponent:.4f} "
          f"(target {target})")
    print()
