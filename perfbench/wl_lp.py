"""lp-certificates: seeded batches of exact, LP-backed answers.

The LP does most of the work here and polygons none, so LP changes show
here and nowhere else.  Sizes run from tiny LPs to about 50 rows, with
feasible and infeasible outcomes mixed.  One instance in four of every
family has its rows rescaled by positive factors spread over 10^+-3,
which leaves each cone, set and verdict unchanged but makes the LP badly
scaled, as real inputs often are.  Verdicts are compared with scipy's
HiGHS on the unscaled data and every returned witness is re-checked
against the rows the program was given.

The LP breaks down at the seed state in two ways: it raises a phase-1
LPError on a well-formed LP, or it returns a verdict HiGHS contradicts or
a witness that fails its rows.  On rescaled instances these are the listed
failures ``lp-phase1-error`` and ``lp-wrong-answer``; on unscaled ones,
where they are rare, both are ``lp-unscaled-breakdown``.  Each has a
recorded most-per-pass, and any other exception or rejection is a failure.
"""

from __future__ import annotations

import numpy as np

import checks
from checks import close, highs, in_generated_cone, lazy, rows_hold
from common import Query, Workload, instance_rngs, known

RESCALED_EVERY = 4   # slot i of each family is rescaled when i % 4 == 3


class Wrong(str):
    """A verdict HiGHS contradicts, or a witness that fails its own rows."""


class Phase1(str):
    """LPError('phase-1 unbounded ...') on a well-formed LP."""


def unit(rng, n, d):
    v = rng.standard_normal((n, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def row_scales(rng, n, rescaled):
    return 10.0 ** rng.uniform(-3.0, 3.0, n) if rescaled else np.ones(n)


def cone_rows(rng, m, nrows):
    """Rows a_i with a_i.c >= 0.2 for a unit c, so c is strictly interior."""
    c = unit(rng, 1, m)[0]
    rows = c[None, :] + 0.8 * unit(rng, nrows, m)
    return rows, c


class Instances:
    """Draws the instances of one pass and records them for the fingerprint."""

    def __init__(self, dp, seed):
        self.dp = dp
        self.seed = seed
        self.queries = []
        self.inputs = []
        self.truths = []      # lazy oracle verdicts, for the outcome mix

    def add(self, kind, call, check, record):
        qid = len(self.queries)
        check = _excuse(check, kind, record["rescaled"])
        self.queries.append(Query(qid, kind, call, check))
        self.inputs.append({"kind": kind, **record})

    def start(self, family: int, slot: int):
        self.shape, self.rng = instance_rngs(self.seed, 1808, family, slot)
        self.resc_flag = slot % RESCALED_EVERY == RESCALED_EVERY - 1

    def rescaled(self):
        return self.resc_flag

    def count(self, feasible):
        self.truths.append(feasible)

    def outcome_mix(self):
        feasible = sum(bool(t()) for t in self.truths)
        return f"{feasible} feasible, {len(self.truths) - feasible} infeasible"

    # -- smooth data -------------------------------------------------------

    def affine_map(self, n, m, xbar):
        """f(x) = J x + q (x.x): a map with an analytic Jacobian."""
        J = self.rng.standard_normal((m, n))
        q = self.rng.standard_normal(m)
        f = self.dp.SmoothMap("bench-affine", n, m,
                              lambda x, J=J, q=q: J @ x + q * float(x @ x),
                              lambda x, J=J, q=q: J + 2.0 * np.outer(q, x))
        return f, J + 2.0 * np.outer(q, xbar)

    def scalar_constraint(self, grad, xbar, offset):
        """mu(x) = grad.(x - xbar) + offset, exactly ``offset`` at xbar."""
        return self.dp.SmoothMap(
            "bench-mu", xbar.size, 1,
            lambda x, g=grad, x0=xbar, o=offset: np.array([g @ (x - x0) + o]),
            lambda x, g=grad: g[None, :])

    def directions(self, n, count, toward=None):
        """Unit generators; with ``toward`` each one has ell.toward >= 0."""
        L = unit(self.rng, count, n)
        if toward is not None:
            L = L * np.where(L @ toward < 0, -1.0, 1.0)[:, None]
        return L

    # -- query families ----------------------------------------------------

    def kkt(self, planted):
        dp, rng = self.dp, self.rng
        resc = self.rescaled()
        n, m = int(self.shape.integers(2, 6)), int(self.shape.integers(1, 4))
        nw = int(self.shape.integers(m, m + 4))
        xbar = rng.uniform(-1, 1, n)
        f, J = self.affine_map(n, m, xbar)
        rows0, e = cone_rows(rng, m, nw)
        rows = rows0 * row_scales(rng, nw, resc)[:, None]
        nmu, nnu = int(self.shape.integers(0, 4)), int(self.shape.integers(0, 2))
        active = self.shape.random(nmu) < 0.6
        g_mu0 = unit(rng, nmu, n)
        g_mu = g_mu0 * row_scales(rng, nmu, resc)[:, None]
        g_nu = unit(rng, nnu, n)
        mu = tuple(self.scalar_constraint(g, xbar, 0.0 if a else -0.5)
                   for g, a in zip(g_mu, active))
        nu = tuple(self.scalar_constraint(h, xbar, 0.0) for h in g_nu)
        w0 = rng.random(nw)
        lam0 = rng.random(nmu) * active
        tau0 = rng.standard_normal(nnu)
        G = J.T @ (rows.T @ w0) + g_mu.T @ lam0 + g_nu.T @ tau0
        L = self.directions(n, int(self.shape.integers(n, 2 * n + 5)),
                            toward=G if planted else None)
        p = dp.Problem(f, dp.HalfspaceCone.from_rows(rows),
                       dp.DirectionSet.finite(L), tuple(xbar),
                       constraint=dp.IneqEq(mu, nu))

        truth = lazy(lambda: checks.kkt_exists(rows0, J, e, L, g_mu0, active, g_nu))
        self.count(truth)

        def check(cert, exc):
            if exc is not None:
                return _lp_exception(exc)
            if (cert is not None) != truth():
                return Wrong(f"multipliers {'found' if cert else 'none'}, HiGHS disagrees")
            if cert is None:
                return None
            w, lam, tau = (np.array(cert.weights), np.array(cert.lam),
                           np.array(cert.tau))
            ystar = rows.T @ w
            res = J.T @ ystar + g_mu.T @ lam + g_nu.T @ tau
            ok = (rows_hold(np.eye(nw), w) and rows_hold(np.eye(nmu), lam)
                  and close(cert.ystar, ystar) and close(ystar @ e, 1.0)
                  and close(lam[~active], 0.0) and close(cert.residual, -res)
                  and rows_hold(L, res))
            return None if ok else Wrong("KKT certificate fails its defining rows")

        self.add("kkt_multipliers", lambda: dp.multipliers.kkt_multipliers(p, e),
                 check, {"n": n, "m": m, "rows": rows, "L": L, "rescaled": resc})

    def fritz_john(self, planted):
        dp, rng = self.dp, self.rng
        resc = self.rescaled()
        n, m = int(self.shape.integers(2, 6)), int(self.shape.integers(1, 4))
        nw = int(self.shape.integers(m, m + 4))
        xbar = rng.uniform(-1, 1, n)
        f, Jf = self.affine_map(n, m, xbar)
        rows0, _ = cone_rows(rng, m, nw)
        rows = rows0 * row_scales(rng, nw, resc)[:, None]
        with_g = self.shape.random() < 0.5
        if with_g:
            qd = int(self.shape.integers(1, 3))
            g, Jg = self.affine_map(n, qd, xbar)
            q_rows, _ = cone_rows(rng, qd, int(self.shape.integers(qd, qd + 3)))
            Q = dp.HalfspaceCone.from_rows(q_rows)
        else:
            g = Q = None
            Jg, q_rows = np.zeros((0, n)), np.zeros((0, 0))
        ns = q_rows.shape[0]
        w0 = rng.random(nw + ns)
        G = Jf.T @ (rows.T @ w0[:nw]) + (Jg.T @ (q_rows.T @ w0[nw:]) if ns else 0.0)
        L = self.directions(n, int(self.shape.integers(n, 2 * n + 5)),
                            toward=G if planted else None)
        p = dp.Problem(f, dp.HalfspaceCone.from_rows(rows),
                       dp.DirectionSet.finite(L), tuple(xbar))

        truth = lazy(lambda: checks.fritz_john_exists(rows0, Jf, L, q_rows, Jg))
        self.count(truth)

        def check(res, exc):
            if exc is not None:
                return _lp_exception(exc)
            if (res is not None) != truth():
                return Wrong(f"Fritz John pair {'found' if res else 'none'}, HiGHS disagrees")
            if res is None:
                return None
            ystar, zstar = np.array(res[0]), np.array(res[1])
            if not in_generated_cone(rows0, ystar):
                return Wrong("y* is not in K+")
            if ns and not in_generated_cone(q_rows, zstar):
                return Wrong("z* is not in Q+")
            stat = Jf.T @ ystar + (Jg.T @ zstar if ns else 0.0)
            if not rows_hold(L, stat):
                return Wrong("Fritz John pair fails a generator of cone L")
            if np.linalg.norm(np.concatenate([ystar, zstar])) <= 1e-12:
                return Wrong("Fritz John pair is zero")
            return None

        self.add("fritz_john", lambda: dp.multipliers.fritz_john(p, g, Q), check,
                 {"n": n, "m": m, "rows": rows, "L": L, "g": with_g, "rescaled": resc})

    def polyhedron_at(self, n, xbar, nrows, nactive, resc):
        """Rows (unscaled, as given) and offsets; the first nactive are active."""
        rows0 = unit(self.rng, nrows, n)
        rows = rows0 * row_scales(self.rng, nrows, resc)[:, None]
        offsets = rows @ xbar
        offsets[nactive:] -= 0.5 * np.abs(rows[nactive:]).sum(axis=1)
        return rows0, rows, offsets

    def penalized(self, vector):
        dp, rng = self.dp, self.rng
        resc = self.rescaled()
        n = int(self.shape.integers(2, 6))
        xbar = rng.uniform(-1, 1, n)
        nrows = int(self.shape.integers(1, n + 3))
        nactive = int(self.shape.integers(0, nrows + 1))
        A0, A_rows, A_off = self.polyhedron_at(n, xbar, nrows, nactive, resc)
        N0, N = -A0[:nactive], -A_rows[:nactive]   # normal-cone generators
        m = int(self.shape.integers(1, 4)) if vector else 1
        f, J = self.affine_map(n, m, xbar)
        L = self.directions(n, int(self.shape.integers(n, 2 * n + 5)))
        Ldir = dp.DirectionSet.finite(L)
        k = N.shape[0]
        if not vector:
            truth = lazy(lambda: checks.decomposes(N0, -J[0], L))
            vm = None
        else:
            nw = int(self.shape.integers(m, m + 4))
            rows0, e = cone_rows(rng, m, nw)
            rows = rows0 * row_scales(rng, nw, resc)[:, None]
            K = dp.HalfspaceCone.from_rows(rows)
            lip = float(rng.uniform(0.5, 4.0))
            vm = {"e": list(e), "ell": lip, "K": K}
            coef = J.T @ rows0.T                   # x* = coef @ w
            nv = nw + k + 2 * n
            eq = [(np.concatenate([rows0 @ e, np.zeros(k + 2 * n)]), 1.0)]
            for j in range(n):
                eq.append((np.concatenate([-coef[j], -N0[:, j], -np.eye(n)[j],
                                           np.zeros(n)]), 0.0))
            ge = [(np.concatenate([np.zeros(nw + k), -ell, np.zeros(n)]), 0.0)
                  for ell in L]
            for j in range(n):
                u = np.eye(n)[j]
                ge.append((np.concatenate([-coef[j], np.zeros(k + n), u]), 0.0))
                ge.append((np.concatenate([coef[j], np.zeros(k + n), u]), 0.0))
            ge.append((np.concatenate([np.zeros(nw + k + n), -np.ones(n)]), -lip))
            truth = lazy(lambda: highs(nv, ge, eq, nonneg=range(nw + k))[0] == "feasible")
        self.count(truth)

        def check(res, exc):
            if exc is not None:
                return _lp_exception(exc)
            if (res is not None) != truth():
                return Wrong(f"penalized witness {'found' if res else 'none'}, HiGHS disagrees")
            if res is None:
                return None
            if not vector:
                a, q = np.array(res["normal_weights"]), np.array(res["polar_part"])
                ok = (rows_hold(np.eye(k), a) and rows_hold(-L, q)
                      and close(N.T @ a + q, -J[0]))
                return None if ok else Wrong("scalar decomposition fails its rows")
            ystar, xstar = np.array(res["ystar"]), np.array(res["xstar"])
            ok = (in_generated_cone(rows0, ystar) and close(ystar @ e, 1.0)
                  and close(xstar, J.T @ ystar)
                  and np.abs(xstar).sum() <= lip * (1 + 1e-7) + 1e-9
                  and checks.decomposes(N0, -xstar, L))
            return None if ok else Wrong("vector-mode witness fails its rows")

        kind = "stationarity_penalized_vector" if vector else "stationarity_penalized_scalar"
        self.add(kind,
                 lambda: dp.multipliers.stationarity_penalized(
                     f, dp.PolyhedralSet.from_rows(A_rows, A_off), xbar, Ldir, vm),
                 check, {"n": n, "A": A_rows, "L": L, "rescaled": resc})

    def sufficiency(self, weak, four_d=False):
        dp, rng = self.dp, self.rng
        resc = self.rescaled()
        # the strong check solves up to one LP per row of K and stops at the
        # first witness, so its instances are kept small: their cost varies
        # with the data far more than that of one LP.  The 4-D family keeps
        # the size at which unscaled strong checks break down most often.
        d = 4 if four_d else int(self.shape.integers(2, 5 if weak else 4))
        xbar = rng.uniform(-1, 1, d)
        nrows = int(self.shape.integers(1, d + 3))
        nactive = int(self.shape.integers(0, nrows + 1))
        M0, M_rows, M_off = self.polyhedron_at(d, xbar, nrows, nactive, resc)
        T = M0[:nactive]
        nw = int(self.shape.integers(d, d + (2 if not weak and not four_d else 3)))
        k0, _ = cone_rows(rng, d, nw)
        k_rows = k0 * row_scales(rng, nw, resc)[:, None]
        K = dp.HalfspaceCone.from_rows(k_rows)
        finite = self.shape.random() < 0.5
        if finite:
            G = self.directions(d, int(self.shape.integers(d, 2 * d + 4)))
            L = dp.DirectionSet.finite(G)
        else:
            S, _ = cone_rows(rng, d, int(self.shape.integers(d, d + 3)))
            L = None      # a cone section solves LPs: built inside the query
        ng = G.shape[0] if finite else 0
        nv = 2 * d + ng

        def base_rows():
            """(T + K) cap cone L over the variables (v, s, gamma)."""
            ge = [(np.concatenate([np.zeros(d), r, np.zeros(ng)]), 0.0) for r in T]
            ge += [(np.concatenate([r, -r, np.zeros(ng)]), 0.0) for r in k0]
            eq = []
            if finite:
                for j in range(d):
                    eq.append((np.concatenate([np.eye(d)[j], np.zeros(d), -G[:, j]]), 0.0))
            else:
                ge += [(np.concatenate([r, np.zeros(d)]), 0.0) for r in S]
            return ge, eq

        def feasible_with(extra):
            ge, eq = base_rows()
            ge = ge + [(np.concatenate([r, np.zeros(d + ng)]), b) for r, b in extra]
            return highs(nv, ge, eq, nonneg=range(2 * d, nv))[0] == "feasible"

        if weak:
            violated = lazy(lambda: feasible_with([(-r, 1.0) for r in k0]))
        else:
            violated = lazy(lambda: any(
                feasible_with([(-r, 0.0) for r in k0] + [(-k0[j], 1.0)])
                for j in range(nw)))
        self.count(violated)

        def in_T_plus_K(v):
            ge = [(r, 0.0) for r in T]
            ge += [(-r, -float(r @ v)) for r in k0]           # r.(v - s) >= 0
            return highs(d, ge)[0] == "feasible"

        def check(res, exc):
            if exc is not None:
                return _lp_exception(exc)
            got = res["witness"] is not None
            if got != violated():
                return Wrong(f"sufficiency verdict {res['verdict']!r}, HiGHS disagrees")
            if not got:
                return None
            v = np.array(res["witness"])
            in_L = in_generated_cone(G, v) if finite else rows_hold(S, v)
            if weak:
                sign_ok = rows_hold(-k_rows, v, np.ones(nw))
            else:
                sign_ok = rows_hold(-k_rows, v) and any(
                    rows_hold(-r[None, :], v, [1.0]) for r in k_rows)
            ok = in_L and sign_ok and in_T_plus_K(v)
            return None if ok else Wrong("sufficiency witness fails its rows")

        kind = "tangent_sufficiency_" + ("weak" if weak else "strong_4d" if four_d
                                         else "strong")
        self.add(kind,
                 lambda: dp.certify.tangent_sufficiency_sets(
                     dp.PolyhedralSet.from_rows(M_rows, M_off), xbar, K,
                     L or dp.DirectionSet.cone_section(dp.HalfspaceCone.from_rows(S)),
                     weak=weak),
                 check, {"d": d, "M": M_rows, "K": k_rows, "finite": finite,
                         "rescaled": resc})

    def subdiff(self):
        dp, rng = self.dp, self.rng
        resc = self.rescaled()
        m = int(self.shape.integers(2, 6))
        nw = int(self.shape.integers(m, 2 * m + 3))
        rows0, e = cone_rows(rng, m, nw)
        rows = rows0 * row_scales(rng, nw, resc)[:, None]
        ctx = dp.ScalarizationContext.create(dp.HalfspaceCone.from_rows(rows), e)
        u = rng.standard_normal(m)
        s = float(np.max((rows @ u) / (rows @ e)))
        self.count(lambda: True)

        def check(cert, exc):
            if exc is not None:
                return _lp_exception(exc)
            v = np.array(cert.witness)
            ok = (close(cert.value, s) and close(v @ e, 1.0) and close(v @ u, s)
                  and in_generated_cone(rows0, v))
            return None if ok else Wrong("subgradient fails v(e) = 1, v(u) = s(u) or v in K+")

        self.add("gerstewitz_subdiff",
                 lambda: dp.scalarize.gerstewitz_subdiff(ctx, u), check,
                 {"rows": rows, "u": u, "rescaled": resc})

    def mintime(self, reachable):
        dp, rng = self.dp, self.rng
        resc = self.rescaled()
        d = int(self.shape.integers(2, 5))
        S, c = cone_rows(rng, d, int(self.shape.integers(d, d + 3)))
        S_given = S * row_scales(rng, len(S), resc)[:, None]
        x = rng.uniform(-1, 1, d)
        centre = x + (2.0 if reachable else -2.0) * c + 0.3 * rng.standard_normal(d)
        box = np.vstack([np.eye(d), -np.eye(d)])
        off = np.concatenate([centre - 0.5, -(centre + 0.5)])
        sc = row_scales(rng, 2 * d, resc)
        box_given, off_given = box * sc[:, None], off * sc
        ge = [(np.append(r, 0.0), 0.0) for r in S]
        for k in range(d):
            ge.append((np.append(np.eye(d)[k], 1.0), 0.0))
            ge.append((np.append(-np.eye(d)[k], 1.0), 0.0))
        ge += [(np.append(r, 0.0), b - float(r @ x)) for r, b in zip(box, off)]

        def linf_time():
            status, sol = highs(d + 1, ge, objective=np.append(np.zeros(d), 1.0))
            return float(sol[-1]) if status == "feasible" else np.inf
        time_ = lazy(linf_time)
        self.count(lambda: np.isfinite(time_()))

        def check(res, exc):
            if exc is not None:
                return _lp_exception(exc)
            value, exact = res
            if not exact:
                return "linf minimal time over a cone section must be exact"
            truth = time_()
            if np.isinf(truth) or np.isinf(value):
                return None if np.isinf(truth) and np.isinf(value) else \
                    Wrong(f"minimal time {value}, HiGHS gives {truth}")
            return None if abs(value - truth) <= 1e-6 * (1 + truth) else \
                Wrong(f"minimal time {value}, HiGHS gives {truth}")

        self.add("minimal_time_linf",
                 lambda: dp.mintime.minimal_time(
                     dp.DirectionSet.cone_section(dp.HalfspaceCone.from_rows(S_given)),
                     x, dp.Target.polyhedral(
                         dp.PolyhedralSet.from_rows(box_given, off_given)),
                     norm="linf"), check,
                 {"S": S, "x": x, "centre": centre, "rescaled": resc})

    def generator_contains(self, inside):
        dp, rng = self.dp, self.rng
        resc = self.rescaled()
        d = int(self.shape.integers(3, 7))
        ng = int(self.shape.integers(d, 5 * d + 10))
        gens, c = cone_rows(rng, d, ng)
        cone = dp.GeneratorCone.from_generators(
            gens * row_scales(rng, ng, resc)[:, None])
        if inside:
            v = gens.T @ (rng.random(ng) * (rng.random(ng) < 0.5))
            if np.linalg.norm(v) == 0.0:
                v = gens[0].copy()
        else:
            v = rng.standard_normal(d) - 1.5 * c
        truth = lazy(lambda: in_generated_cone(gens, v))
        self.count(truth)

        def check(res, exc):
            if exc is not None:
                return _lp_exception(exc)
            return None if bool(res) == truth() else \
                Wrong(f"membership {bool(res)}, HiGHS says {truth()}")

        self.add("generator_cone_contains", lambda: cone.contains(v), check,
                 {"gens": gens, "v": v, "rescaled": resc})

    def cone_section(self, trivial):
        dp, rng = self.dp, self.rng
        resc = self.rescaled()
        d = int(self.shape.integers(2, 7))
        if trivial:
            base = rng.standard_normal((d, d))
            rows = np.vstack([base, -base.sum(axis=0)[None, :] * rng.uniform(0.5, 2)])
        else:
            rows, _ = cone_rows(rng, d, int(self.shape.integers(1, 2 * d + 2)))
        rows = rows * row_scales(rng, len(rows), resc)[:, None]
        cone = dp.HalfspaceCone.from_rows(rows)
        nontrivial = lazy(lambda: any(_box_max(rows, sign * np.eye(d)[k])
                                      for k in range(d) for sign in (1.0, -1.0)))
        self.count(nontrivial)

        def check(res, exc):
            if exc is not None:
                if type(exc).__name__ == "GeometryError" and not nontrivial():
                    return None       # declared outcome for a trivial cone
                return _lp_exception(exc)
            if not nontrivial():
                return Wrong("trivial cone accepted as a section")
            ok = res.variant == "cone_section" and np.array_equal(
                res.section.matrix, rows)
            return None if ok else "cone section does not keep its cone"

        self.add("cone_section", lambda: dp.DirectionSet.cone_section(cone), check,
                 {"rows": rows, "rescaled": resc})


def _box_max(rows, direction) -> bool:
    """Is max direction.y over {rows y >= 0, |y|_inf <= 1} clearly positive?"""
    d = rows.shape[1]
    ge = [(r / np.linalg.norm(r), 0.0) for r in rows]
    ge += [(s * np.eye(d)[k], -1.0) for k in range(d) for s in (1.0, -1.0)]
    status, sol = highs(d, ge, objective=-direction)
    return status == "feasible" and float(direction @ sol) > 1e-6


def _excuse(check, kind, rescaled):
    """The two signatures of the LP breakdown are listed failures; every
    other rejection stays a failure."""
    def excused(result, exc):
        why = check(result, exc)
        if not isinstance(why, (Phase1, Wrong)):
            return why
        if not rescaled:
            return known("lp-unscaled-breakdown", f"{kind}: {why}")
        if isinstance(why, Phase1):
            return known("lp-phase1-error", kind)
        return known("lp-wrong-answer", f"{kind}: {why}")
    return excused


def _lp_exception(exc):
    if type(exc).__name__ == "LPError" and str(exc).startswith("phase-1 unbounded"):
        return Phase1(f"raised LPError: {exc}")
    return f"raised {type(exc).__name__}: {exc}"


PLAN = [("kkt", 16), ("fritz_john", 16), ("penalized_scalar", 12),
        ("penalized_vector", 12), ("sufficiency_weak", 12),
        ("sufficiency_strong", 12), ("sufficiency_strong_4d", 4), ("subdiff", 16), ("mintime", 16),
        ("generator_contains", 24), ("cone_section", 16)]


def build(dp, seed: int, workdir) -> Workload:
    inst = Instances(dp, seed)
    steps = [(family, i) for family, n in PLAN for i in range(n)]
    order = np.random.default_rng([seed, 1808]).permutation(len(steps))
    families = [name for name, _ in PLAN]
    for j in order:
        family, i = steps[j]
        inst.start(families.index(family), i)
        flag = i % 2 == 0          # planted / reachable / inside ...
        {"kkt": lambda: inst.kkt(flag),
         "fritz_john": lambda: inst.fritz_john(flag),
         "penalized_scalar": lambda: inst.penalized(False),
         "penalized_vector": lambda: inst.penalized(True),
         "sufficiency_weak": lambda: inst.sufficiency(True),
         "sufficiency_strong": lambda: inst.sufficiency(False),
         "sufficiency_strong_4d": lambda: inst.sufficiency(False, four_d=True),
         "subdiff": inst.subdiff,
         "mintime": lambda: inst.mintime(flag),
         "generator_contains": lambda: inst.generator_contains(flag),
         "cone_section": lambda: inst.cone_section(i % 4 == 0)}[family]()
    n = len(inst.queries)
    notes = {"rescaled share": f"{sum(1 for x in inst.inputs if x['rescaled'])}/{n}"
                               " instances, row scales 10^U(-3,3)",
             "HiGHS outcomes": inst.outcome_mix}
    return Workload(inst.queries, inputs=[{k: np.asarray(v).tolist() if isinstance(
        v, np.ndarray) else v for k, v in rec.items()} for rec in inst.inputs],
        notes=notes)
