"""Element-level verdicts, kept as a test oracle.

The ring-law, bimodule-axiom and null-homotopy checks of the
library run on basis vectors: each side of each identity is one sum of
per-basis products.  The functions here compute the same reports the
way the checks were first written, by wrapping every basis vector in a
one-term element and pushing it through the element-level maps
(ArcRing.multiply, UiBimodule.left_mul, right_mul, alpha and beta).
They are slow and self-contained on purpose; the tests compare the
reports key for key, in order, including every counterexample.
"""

import random

from arcring.arc_ring import RingElement, degree, get_ring
from arcring.braid_homotopy import _triple_sampler, get_bimodule
from arcring.center import central_X


def ring_laws_report(n, seed=0, samples=10000):
    """The unit-law and associativity fields of verify_ring_integrity,
    checked on elements, with the same seeded triples."""
    ring = get_ring(n)
    rng = random.Random(seed)
    by_row = {}
    for v in ring.basis:
        by_row.setdefault(v.row, []).append(v)
    report = {}

    one = ring.unit()
    unit_ok = True
    for v in ring.basis:
        e = RingElement(n, {v: 1})
        if ring.multiply(one, e) != e or ring.multiply(e, one) != e:
            unit_ok = False
            report["unit_counterexample"] = repr(v)
            break
    report["unit_law"] = unit_ok

    if n <= 2:
        triples = [
            (x, y, z) for x in ring.basis for y in by_row[x.col] for z in by_row[y.col]
        ]
        report["associativity_mode"] = "exhaustive"
    else:
        triples = []
        for _ in range(samples):
            x = rng.choice(ring.basis)
            y = rng.choice(by_row[x.col])
            z = rng.choice(by_row[y.col])
            triples.append((x, y, z))
        report["associativity_mode"] = "sampled"
    assoc_ok = True
    for x, y, z in triples:
        ex, ey, ez = (RingElement(n, {v: 1}) for v in (x, y, z))
        if ring.multiply(ring.multiply(ex, ey), ez) != ring.multiply(ex, ring.multiply(ey, ez)):
            assoc_ok = False
            report["associativity_counterexample"] = [repr(x), repr(y), repr(z)]
            break
    report["associativity_triples"] = len(triples)
    report["associative"] = assoc_ok
    return report


def bimodule_axiom_witness(n, i, samples=300, seed=0):
    """_bimodule_axiom_witness, with every law checked on elements."""
    module = get_bimodule(n, i)
    ring = module.ring
    one = ring.unit()
    for v in module.basis:
        x = module.element({v: 1})
        if module.left_mul(one, x) != x or module.right_mul(x, one) != x:
            return ["unit", repr(v)]

    def as_ring(v):
        return RingElement(n, {v: 1})

    def as_module(v):
        return module.element({v: 1})

    count, triple_at = _triple_sampler(module)
    rng = random.Random(seed)
    picks = rng.sample(range(count), samples) if count > samples else range(count)
    for kind, t1, t2, t3 in map(triple_at, picks):
        if kind == "ll":
            lhs = module.left_mul(ring.multiply(as_ring(t1), as_ring(t2)), as_module(t3))
            rhs = module.left_mul(as_ring(t1), module.left_mul(as_ring(t2), as_module(t3)))
        elif kind == "rr":
            lhs = module.right_mul(as_module(t1), ring.multiply(as_ring(t2), as_ring(t3)))
            rhs = module.right_mul(module.right_mul(as_module(t1), as_ring(t2)), as_ring(t3))
        else:
            lhs = module.right_mul(module.left_mul(as_ring(t1), as_module(t2)), as_ring(t3))
            rhs = module.left_mul(as_ring(t1), module.right_mul(as_module(t2), as_ring(t3)))
        if lhs != rhs:
            return [kind, repr(t1), repr(t2), repr(t3)]
    return None


def null_homotopy_report(i, n, check_axioms=True):
    """verify_null_homotopy, with every image computed on elements."""
    module = get_bimodule(n, i)
    ring = module.ring
    z_lo = central_X(i, n, verify=False)
    z_hi = central_X(i + 1, n, verify=False)
    report = {"n": n, "i": i}

    def saddle_images():
        for v in module.basis:
            yield "alpha", v, module.alpha(module.element({v: 1}))
        for v in ring.basis:
            yield "beta", v, module.beta(RingElement(n, {v: 1}))

    degree_witness = next(
        (
            [kind, repr(v)]
            for kind, v, image in saddle_images()
            if any(degree(w) != degree(v) + 1 for w in image.terms)
        ),
        None,
    )
    report["saddle_maps_degree_one"] = degree_witness is None
    if degree_witness is not None:
        report["degree_counterexample"] = degree_witness

    def phi_ring(zl, zr, y):
        return ring.multiply(zl, y) - ring.multiply(y, zr)

    def phi_module(zl, zr, x):
        return module.left_mul(zl, x) - module.right_mul(x, zr)

    def sides(zl, zr):
        for v in ring.basis:
            y = RingElement(n, {v: 1})
            yield "ring", v, phi_ring(zl, zr, y), module.alpha(module.beta(y)), None
        for v in module.basis:
            x = module.element({v: 1})
            a = module.alpha(x)
            yield "bimodule", v, phi_module(zl, zr, x), module.beta(a), a

    signs, unsigned, chain_ok = {}, {}, True
    for name, zl, zr in (
        ("left_lower_minus_right_upper", z_lo, z_hi),
        ("left_upper_minus_right_lower", z_hi, z_lo),
    ):
        plus = minus = neither = None
        commutes = True
        for kind, v, lhs, rhs, a in sides(zl, zr):
            off_plus, off_minus = lhs != rhs, lhs != -rhs
            if off_plus:
                plus = plus or f"{kind} {v!r}"
            if off_minus:
                minus = minus or f"{kind} {v!r}"
            if off_plus and off_minus:
                neither = neither or f"{kind} {v!r}"
            if commutes and a is not None and module.alpha(lhs) != phi_ring(zl, zr, a):
                commutes = chain_ok = False
                report.setdefault("commutes_counterexample", [name, repr(v)])
        if plus is None:
            signs[name] = 1
        elif minus is None:
            signs[name] = -1
        else:
            signs[name] = None
            unsigned[name] = [neither] if neither is not None else [plus, minus]
    report["homotopy_signs"] = signs
    if unsigned:
        report["homotopy_counterexample"] = unsigned
    report["saddle_commutes_with_endomorphisms"] = chain_ok
    if check_axioms:
        witness = bimodule_axiom_witness(n, i)
        report["bimodule_axioms"] = witness is None
        if witness is not None:
            report["bimodule_axioms_counterexample"] = witness
    report["passed"] = (
        report["saddle_maps_degree_one"]
        and chain_ok
        and all(s in (1, -1) for s in signs.values())
        and report.get("bimodule_axioms", True)
    )
    return report
