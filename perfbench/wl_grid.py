"""grid-sweep: seeded sampling queries on smooth maps.

Map evaluation, cone membership and direction sampling do most of the
work here and the LP little.  Certificates that walk the whole grid are
mixed with refutations that stop early, and about half of the queries
share K / L objects built once in set-up while the rest build fresh ones
inside the timed call, so that batching or compile-once changes which help
full walks or shared objects but cost early exits or fresh objects show.
Certificates are re-walked in numpy, refutations re-evaluated, and ratio
suprema and openness witnesses recomputed.
"""

from __future__ import annotations

import dataclasses

import numpy as np

import checks
from checks import TOL, close
from common import Query, Workload, instance_rngs

TS = 0.5 * 0.5 ** np.arange(21)        # the default certification grid


class Poly:
    """Polynomial map given as monomials; evaluates in numpy and prints as
    dirpareto expressions, term by term in the same order."""

    def __init__(self, dim, outputs):
        self.dim = dim
        self.outputs = outputs           # [[(coef, exponents), ...], ...]

    def exprs(self):
        out = []
        for terms in self.outputs:
            parts = []
            for k, (c, ex) in enumerate(terms):
                mono = "*".join(f"x{i}" + (f"^{p}" if p > 1 else "")
                                for i, p in enumerate(ex) if p)
                body = f"{float(abs(c))!r}" + (f"*{mono}" if mono else "")
                sign = "-" if c < 0 else "+"
                parts.append((("-" if c < 0 else "") if k == 0 else f" {sign} ") + body)
            out.append("".join(parts))
        return out

    def __call__(self, X):
        cols = []
        for terms in self.outputs:
            acc = np.zeros(len(X))
            for c, ex in terms:
                v = np.full(len(X), abs(c))
                for i, p in enumerate(ex):
                    if p:
                        v = v * X[:, i] ** p
                acc = acc - v if c < 0 else acc + v
            cols.append(acc)
        return np.stack(cols, axis=1)

    def jacobian(self, x):
        J = np.zeros((len(self.outputs), self.dim))
        for o, terms in enumerate(self.outputs):
            for c, ex in terms:
                for i, p in enumerate(ex):
                    if p:
                        e2 = list(ex)
                        e2[i] -= 1
                        J[o, i] += c * p * np.prod([x[j] ** q for j, q in enumerate(e2)])
        return J


BUILTINS = {   # name -> (numpy map, rows of the K it is certified against)
    "saddle_x2_y2": (lambda X: (X[:, 0] ** 2 - X[:, 1] ** 2)[:, None], [[1.0]]),
    "saddle_x2_y3": (lambda X: (X[:, 0] ** 2 - X[:, 1] ** 3)[:, None], [[1.0]]),
    "vector_pair_saddle": (lambda X: np.stack([X[:, 0] ** 2 - X[:, 1] ** 2,
                                               X[:, 0] ** 2 - X[:, 1] ** 3], axis=1),
                           [[1.0, 0.0], [0.0, 1.0]]),
    "identity_2": (lambda X: X.copy(), [[1.0, 0.0], [0.0, 1.0]]),
}


def arc(rng, n, centre, width):
    ang = centre + width * (rng.random(n) - 0.5)
    return np.stack([np.cos(ang), np.sin(ang)], axis=1)


def unit(v):
    v = np.asarray(v, float)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


class Sweep:
    def __init__(self, dp, seed):
        self.dp = dp
        self.queries = []
        self.inputs = []
        self.pool = {}

    def add(self, kind, call, check, shared, record):
        self.queries.append(Query(len(self.queries), kind, call, check, shared=shared))
        self.inputs.append({"kind": kind, "shared": shared, **record})

    def objects(self, key, make_array, k_rows, section=False):
        """(L factory, L array, K factory, shared).

        A shared query takes K and L from a pool built in set-up, where later
        shared queries with the same key find them again; a fresh query
        builds both inside its timed call.
        """
        dp = self.dp
        if self.shape.random() >= 0.5:
            arr = make_array()
            if section:
                return (lambda: dp.DirectionSet.cone_section(
                    dp.HalfspaceCone.from_rows(arr))), arr, \
                    (lambda: dp.HalfspaceCone.from_rows(k_rows)), False
            return (lambda: dp.DirectionSet.finite(arr)), arr, \
                (lambda: dp.HalfspaceCone.from_rows(k_rows)), False
        if key not in self.pool:
            arr = make_array()
            L = (dp.DirectionSet.cone_section(dp.HalfspaceCone.from_rows(arr))
                 if section else dp.DirectionSet.finite(arr))
            self.pool[key] = (L, arr)
        kkey = ("K", repr(k_rows))
        if kkey not in self.pool:
            self.pool[kkey] = (dp.HalfspaceCone.from_rows(k_rows), k_rows)
        (L, arr), K = self.pool[key], self.pool[kkey][0]
        return (lambda: L), arr, (lambda: K), True

    # -- certify ---------------------------------------------------------

    def certify_check(self, f_np, k_rows, xbar, dirs, ts, weak, feasible=None):
        x0 = np.asarray(xbar, float)
        f0 = f_np(x0[None, :])[0]
        expected = checks.lazy(lambda: checks.walk(x0, dirs, ts, lambda X: f_np(X) - f0,
                                                   k_rows, weak, feasible))

        def check(rep, exc):
            if exc is not None:
                return f"raised {type(exc).__name__}: {exc}"
            why = checks.check_cert_report(rep.as_dict(), expected())
            if why is None and rep.verdict == "refuted":
                x, d = map(np.array, rep.counterexample)
                again = f_np(x[None, :])[0] - f0
                if not checks.violates(again[None, :], k_rows, weak)[0]:
                    return "counterexample does not re-evaluate to a violation"
            return why
        return check

    def safe_arc(self, name, n, bad_at=None):
        """n directions along which ``name`` has no violation at the origin,
        with one violating direction (0, 1) at position ``bad_at``."""
        centre = {"saddle_x2_y3": 1.5 * np.pi}.get(name, self.shape.choice([0.0, np.pi]))
        width = np.pi - 0.1 if name == "saddle_x2_y3" else np.pi / 2 - 0.1
        dirs = arc(self.rng, n, centre, width)
        if bad_at is not None:
            dirs[bad_at] = (0.0, 1.0)
        return dirs

    def certify_builtin(self, slot):
        dp, sh = self.dp, self.shape
        name = ["saddle_x2_y2", "saddle_x2_y3", "vector_pair_saddle"][slot % 3]
        f_np, k_rows = BUILTINS[name]
        n = [16, 32, 64, 128, 256, 16, 32, 64][slot % 8]
        weak = bool(sh.random() < 0.3)
        bad_at = None if slot % 2 == 0 else int(sh.integers(0, n))
        Lf, dirs, Kf, shared = self.objects(
            ("fin", name, n, bad_at), lambda: self.safe_arc(name, n, bad_at), k_rows)
        f = dp.builtin(name)
        self.add("certify_builtin",
                 lambda: dp.certify.certify_directional_min(
                     dp.Problem(f, Kf(), Lf(), (0.0, 0.0)), weak=weak),
                 self.certify_check(f_np, k_rows, (0.0, 0.0), dirs, TS, weak),
                 shared, {"name": name, "L": dirs, "weak": weak})

    def quadratic(self, dim, dip=None):
        """Positive definite quadratic form; with ``dip`` (a unit vector) it
        drops by 6 (dip.x)^2, which makes it negative near that direction."""
        rng = self.rng
        a = rng.uniform(0.5, 2.0, dim)
        terms = [(float(a[i]), tuple(2 if j == i else 0 for j in range(dim)))
                 for i in range(dim)]
        for i in range(dim):
            for j in range(i + 1, dim):
                c = float(rng.uniform(-0.2, 0.2))
                if dip is not None:
                    c -= 12.0 * dip[i] * dip[j]
                terms.append((c, tuple(1 if k in (i, j) else 0 for k in range(dim))))
        if dip is not None:
            terms[:dim] = [(c - 6.0 * dip[i] ** 2, ex) for i, (c, ex) in
                           enumerate(terms[:dim])]
        return Poly(dim, [terms])

    def certify_section(self, slot):
        dp, rng = self.dp, self.rng
        rays = [16, 32, 64][slot % 3]
        axis = unit(rng.standard_normal(3))

        def make():
            return axis[None, :] + 0.7 * unit(rng.standard_normal((4, 3)))

        Lf, rows, Kf, shared = self.objects(("sec", slot % 3), make, [[1.0]],
                                            section=True)
        dip = unit(rows.sum(axis=0)) if slot % 2 else None
        poly = self.quadratic(3, dip)
        grid = dp.GridSpec(rays_per_level=rays)
        dirs = checks.section_directions(rows, rays)
        exprs = poly.exprs()
        self.add("certify_expression_section",
                 lambda: dp.certify.certify_directional_min(
                     dp.Problem(dp.from_expressions(exprs, 3), Kf(), Lf(),
                                (0.0, 0.0, 0.0), grid)),
                 self.certify_check(poly, [[1.0]], np.zeros(3), dirs, TS, False),
                 shared, {"exprs": exprs, "rows": rows, "rays": rays})

    def certify_constrained(self, slot):
        dp, rng, sh = self.dp, self.rng, self.shape
        dim = 2 if slot % 2 == 0 else 3
        r = [0.05, 0.1, 0.2, 0.4][slot % 4]
        mu_poly = Poly(dim, [[(1.0, (1, 0, 0)[:dim]), (1.0, (0, 1, 0)[:dim]),
                              (-r, (0,) * dim)]])
        mu = (dp.from_expressions(mu_poly.exprs(), dim, name="mu0"),)
        n = [16, 32, 64][slot % 3]
        if dim == 2:
            name = "saddle_x2_y2"
            f_np, k_rows = BUILTINS[name]
            f = dp.builtin(name)
            nu, nu_poly = (), None
            bad_at = int(sh.integers(0, n)) if slot % 4 == 2 else None
            make = lambda: self.safe_arc(name, n, bad_at)  # noqa: E731
        else:
            f_np = self.quadratic(3)
            k_rows = [[1.0]]
            f = dp.from_expressions(f_np.exprs(), 3)
            nu_poly = Poly(3, [[(1.0, (0, 0, 1))]])
            nu = (dp.from_expressions(nu_poly.exprs(), 3, name="nu0"),)
            flat_mask = sh.random(n) < 0.5

            def make():
                flat = unit(np.concatenate([rng.standard_normal((n, 2)),
                                            np.zeros((n, 1))], axis=1))
                return np.where(flat_mask[:, None], flat,
                                unit(rng.standard_normal((n, 3))))
        con = dp.IneqEq(mu, nu)

        def feasible(X):
            ok = mu_poly(X)[:, 0] <= checks.FEAS_TOL
            if nu_poly is not None:
                ok &= np.abs(nu_poly(X)[:, 0]) <= checks.FEAS_TOL
            return ok

        Lf, dirs, Kf, shared = self.objects(("con", dim, slot % 4), make, k_rows)
        xbar = (0.0,) * dim
        self.add("certify_constrained",
                 lambda: dp.certify.certify_directional_min(
                     dp.Problem(f, Kf(), Lf(), xbar, constraint=con)),
                 self.certify_check(f_np, k_rows, xbar, dirs, TS, False, feasible),
                 shared, {"dim": dim, "r": r, "L": dirs})

    # -- ratios ----------------------------------------------------------

    def affine2(self):
        rng = self.rng
        terms = []
        for _ in range(2):
            a, b, c = rng.uniform(-1.5, 1.5, 3)
            terms.append([(float(a), (1, 0)), (float(b), (0, 1)), (float(c), (2, 0))])
        return Poly(2, terms)

    def ratio(self, slot, kind):
        dp, rng = self.dp, self.rng
        poly = self.affine2()
        exprs = poly.exprs()
        nL, nM = [16, 32, 64][slot % 3], [32, 16, 16][slot % 3]
        wL, wM = self.shape.uniform(1.0, 2 * np.pi, 2)
        Lf, Ldirs, _, shared = self.objects(
            ("ratioL", kind, slot % 3), lambda: arc(rng, nL, rng.uniform(0, 2 * np.pi), wL),
            [[1.0]])
        Mdirs = arc(rng, nM, rng.uniform(0, 2 * np.pi), wM)
        levels = 4 if kind == "calmness" else 3
        radius = 0.1
        xbar = np.zeros(2)
        ts = radius * 0.5 ** np.arange(levels)
        f0 = poly(xbar[None, :])[0]

        def expected():
            best, witness, used = 0.0, None, 0
            for ell in Ldirs:
                for t in ts:
                    if kind == "calmness":
                        x = xbar + t * ell
                        num_vec, den = poly(x[None, :])[0] - f0, np.linalg.norm(x - xbar)
                        if den <= TOL:
                            continue
                        num = _point_time(Mdirs, num_vec)
                        if not np.isfinite(num):
                            continue
                    else:
                        x = xbar - t * ell
                        num = _point_time(Ldirs, xbar - x)
                        if not np.isfinite(num) or num <= TOL:
                            continue
                        den = _point_time(Mdirs, poly(x[None, :])[0] - f0)
                        if not np.isfinite(den) or den <= TOL:
                            continue
                    used += 1
                    if num / den > best:
                        best, witness = num / den, x
            return best, witness, used

        def check(est, exc):
            if exc is not None:
                return f"raised {type(exc).__name__}: {exc}"
            best, witness, used = expected()
            if est.samples_used != used:
                return f"{est.samples_used} admissible points, recomputation finds {used}"
            if not close(est.supremum_ratio, best, 1e-9):
                return f"supremum {est.supremum_ratio}, recomputation gives {best}"
            return None

        name = "calmness_ratio" if kind == "calmness" else "subregularity_ratio"
        self.add(name,
                 lambda: getattr(dp.mintime, name)(
                     dp.from_expressions(exprs, 2), xbar, Lf(),
                     dp.DirectionSet.finite(Mdirs), radius=radius, levels=levels),
                 check, shared, {"exprs": exprs, "L": Ldirs, "M": Mdirs})

    # -- first order and openness ----------------------------------------

    def first_order(self, slot):
        dp, rng = self.dp, self.rng
        poly = self.quadratic(2)
        lin = Poly(1 + 1, [[(float(rng.uniform(-1, 1)), (1, 0)),
                            (float(rng.uniform(-1, 1)), (0, 1))] + poly.outputs[0]])
        xbar = rng.uniform(-0.5, 0.5, 2)
        n = [16, 32][slot % 2]
        Ldirs = arc(rng, n, rng.uniform(0, 2 * np.pi), rng.uniform(0.5, 3.0))
        w = rng.random((8, n)) * (rng.random((8, n)) < 0.3)
        w[:, 0] += 1e-3
        dirs = np.vstack([Ldirs[:4], w @ Ldirs])
        J = lin.jacobian(xbar)
        exprs = lin.exprs()
        K = dp.HalfspaceCone.from_rows([[1.0]])

        def check(res, exc):
            if exc is not None:
                return f"raised {type(exc).__name__}: {exc}"
            for u, c in zip(dirs, res["checks"]):
                img = np.array(c.image)
                if not close(img, J @ u, 1e-6):
                    return "derivative image differs from the analytic Jacobian"
                if c.violated != bool(np.all(-img > TOL)):
                    return "violation flag contradicts the image"
            if res["holds"] != (not any(c.violated for c in res["checks"])):
                return "holds contradicts the per-direction flags"
            return None

        self.add("check_first_order_necessary",
                 lambda: dp.certify.check_first_order_necessary(
                     dp.Problem(dp.from_expressions(exprs, 2), K,
                                dp.DirectionSet.finite(Ldirs), tuple(xbar)), dirs),
                 check, False, {"exprs": exprs, "L": Ldirs, "dirs": dirs})

    def openness(self, slot):
        dp, rng = self.dp, self.rng
        name = "identity_2" if slot % 2 == 0 else "saddle_x2_y2"
        f_np = BUILTINS[name][0]
        Ldirs = arc(rng, 2 + slot % 3, rng.uniform(0, 2 * np.pi), 2.0)
        dim_out = 2 if name == "identity_2" else 1
        C = unit(rng.standard_normal((1 + slot % 2, dim_out)))
        xbar = np.zeros(2)

        def check(res, exc):
            if exc is not None:
                return f"raised {type(exc).__name__}: {exc}"
            status, eps, missed = openness_expected(f_np, xbar, Ldirs, C)
            if res["status"] != status:
                return f"status {res['status']}, recomputation gives {status}"
            if status == "witness" and (res["eps"] != eps or len(res["missed"]) != len(missed)
                                        or not close([m["min_distance"] for m in res["missed"]],
                                                     [d for _, d in missed], 1e-9)):
                return "openness witness differs from the recomputation"
            return None

        self.add("openness_falsifier",
                 lambda: dp.certify.openness_falsifier(
                     dp.builtin(name), xbar, dp.DirectionSet.finite(Ldirs),
                     dp.DirectionSet.finite(C)),
                 check, False, {"name": name, "L": Ldirs, "C": C})


def openness_expected(f_np, xbar, Ldirs, C):
    """The default-schedule openness search, recomputed in numpy.

    Returns (status, eps, [(r, min_distance), ...])."""
    f0 = f_np(xbar[None, :])[0]
    steps = np.linspace(0.0, 1.0, 513)[1:]
    for eps in [0.5 * 0.5 ** k for k in range(5)]:
        X = (xbar[None, None, :] + (eps * steps)[None, :, None]
             * Ldirs[:, None, :]).reshape(-1, xbar.size)
        images = np.vstack([f0[None, :], f_np(X)])
        missed = []
        for r in [eps * 0.5 ** j for j in range(1, 7)]:
            hit_all = True
            for c in C:
                y = f0 - r * c
                dist = float(np.min(np.linalg.norm(images - y, axis=1)))
                if dist > 0.25 * r:
                    missed.append((r, dist))
                    hit_all = False
                    break
            if hit_all:
                missed = []
                break
        if missed:
            return "witness", eps, missed
    return "inconclusive", None, []


def _point_time(gens, d):
    """T_M(y, {y + d}) for a finite direction set M in the plane."""
    if np.linalg.norm(d) <= TOL:
        return 0.0
    return float(np.linalg.norm(d)) if checks.planar_cone_contains(gens, d[None, :])[0] \
        else np.inf


PLAN = [("certify_builtin", 28), ("certify_section", 16), ("certify_constrained", 16),
        ("calmness", 8), ("subregularity", 8), ("first_order", 20), ("openness", 4)]


def build(dp, seed: int, workdir) -> Workload:
    sw = Sweep(dp, seed)
    steps = [(family, i) for family, n in PLAN for i in range(n)]
    families = [name for name, _ in PLAN]
    # Instances are made in slot order, so that the first slot of a key
    # always builds the shared K/L objects of that key; the seed then
    # shuffles the order in which the queries run.
    for family, i in steps:
        sw.shape, sw.rng = instance_rngs(seed, 9133, families.index(family), i)
        if family in ("calmness", "subregularity"):
            sw.ratio(i, family)
        else:
            getattr(sw, family)(i)
    order = np.random.default_rng([seed, 9133]).permutation(len(sw.queries))
    sw.queries = [dataclasses.replace(sw.queries[j], qid=k) for k, j in enumerate(order)]
    sw.inputs = [sw.inputs[j] for j in order]
    shared = sum(q.shared for q in sw.queries)
    notes = {"object reuse": f"{shared}/{len(sw.queries)} queries use K/L objects "
                             "shared from set-up, the rest build them in the call"}
    inputs = [{k: np.asarray(v).tolist() if isinstance(v, np.ndarray) else v
               for k, v in rec.items()} for rec in sw.inputs]
    return Workload(sw.queries, inputs=inputs, notes=notes)
