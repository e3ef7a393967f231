"""What the dispatcher actually does: reduction traces for varied queries.

Each query prints the chain of reductions (conjugation, Levi restriction,
highest-weight lowering) and the formula that finished the job.

Run with: python3 demos/reduction_traces.py
"""

from weightmult import build_root_system, multiplicity, root_to_weight_coords


def mu_minus_roots(rs, lam, c):
    return tuple(a - x for a, x in zip(lam, root_to_weight_coords(rs, c)))


QUERIES = [
    ("A", 4, (1, 1, 0, 1), (1, 1, 1, 1), "closed form, support gaps 2 and 3"),
    ("A", 5, (1, 1, 0, 1, 1), (1, 1, 0, 1, 1), "disconnected support factors"),
    ("A", 3, (1, 2, 1), (0, 1, 0), "Levi restriction to one node, then lowering"),
    ("B", 3, (2, 1, 2), (1, 2, 1), "level recursion on a non-simply-laced system"),
    ("G", 2, (0, 1), (2, 1), "exceptional system, zero weight of the adjoint"),
]


def main():
    for family, rank, lam, c, note in QUERIES:
        rs = build_root_system(family, rank)
        mu = mu_minus_roots(rs, lam, c)
        m, trace = multiplicity(rs, lam, mu)
        print(f"{rs.label()}  lam={lam}  mu={mu}   ({note})")
        print(f"  multiplicity = {m}")
        print(f"  trace: {trace.render()}")
        print()

    # A weight in the wrong root-lattice coset dies immediately.
    rs = build_root_system("B", 2)
    m, trace = multiplicity(rs, (1, 1), (0, 0))
    print(f"B2  lam=(1, 1)  mu=(0, 0)   (difference outside the root lattice)")
    print(f"  multiplicity = {m}")
    print(f"  trace: {trace.render()}")


if __name__ == "__main__":
    main()
