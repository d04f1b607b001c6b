"""cli: seeded problem files for the ten problem-file subcommands, run
in-process through ``dirpareto.cli.main(argv)``.

This is the only workload that writes files, so problem-file parsing,
report glue and serialisation show here and nowhere else.  About one
document in ten is malformed.  About half of the ``--out`` targets exist
already (emptied before each call) and half do not exist yet (removed
before each call), as with the README's ``--out reports/``.  Each call
must give the expected exit code; an error must be one ``error:`` line on
stderr with no exception escaping; a report must pass an independent
check of its content.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import shutil

import numpy as np

import checks
from checks import TOL, close
from common import Query, Workload, instance_rngs, known
from wl_grid import BUILTINS, Poly, arc, openness_expected, unit
from wl_lp import cone_rows

ESCAPING = {"ExpressionError", "EvaluationError", "ScalarizationError"}


def linear(J):
    """Linear map x -> J x as a Poly (exact Jacobian under differencing)."""
    m, n = J.shape
    return Poly(n, [[(float(J[o, i]), tuple(int(k == i) for k in range(n)))
                     for i in range(n)] for o in range(m)])


class Fixtures:
    def __init__(self, dp, seed, workdir):
        self.dp = dp
        self.dir = workdir
        (workdir / "problems").mkdir(parents=True)
        (workdir / "out").mkdir()
        self.queries = []
        self.inputs = []
        self.out_dirs = []
        self.curve = checks.lazy(lambda: np.array(dp.sets.closed_curve_region().vertices))

    # -- plumbing ----------------------------------------------------------

    def add(self, command, doc, expect, flags=(), raw=None):
        """expect(code, report) -> reason | None, or "error" for malformed."""
        qid = len(self.queries)
        path = self.dir / "problems" / f"{qid:03d}-{command}.json"
        path.write_text(raw if raw is not None else json.dumps(doc))
        out = self.dir / "out" / f"{qid:03d}"
        exists = bool(self.shape.random() < 0.5)
        if exists:
            out.mkdir()
        argv = [command, "--problem", str(path), "--out", str(out), *flags]
        self.out_dirs.append(out)

        def prepare():
            if exists:
                for f in out.iterdir():
                    f.unlink()
            else:
                shutil.rmtree(out, ignore_errors=True)

        def call():
            so, se = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
                code = self.dp.cli.main(argv)
            return code, so.getvalue(), se.getvalue()

        def check(result, exc):
            if exc is not None:
                if type(exc).__name__ in ESCAPING:
                    return known("escaping-exception", type(exc).__name__)
                return f"{type(exc).__name__} escaped cli.main: {exc}"
            code, stdout, stderr = result
            lines = stderr.splitlines()
            if expect == "error":
                if code == 1 and len(lines) == 1 and lines[0].startswith("error: "):
                    return None
                return f"malformed file: exit {code}, stderr {stderr[:80]!r}"
            if code == 1:
                if (not exists and command in ("certify", "certify-set")
                        and len(lines) == 1 and "No such file or directory" in lines[0]):
                    return known("makedirs-after-write", command)
                return f"exit 1 on a valid file: {stderr[:120]!r}"
            report_path = out / f"{command}.report.json"
            if stdout.strip() != str(report_path) or not report_path.is_file():
                return "stdout does not name the written report"
            return expect(code, json.loads(report_path.read_text()))

        self.queries.append(Query(qid, command, call, check, prepare=prepare))
        self.inputs.append({"argv": argv[:1] + argv[5:], "doc": raw or doc,
                            "out_exists": exists})

    def report_bytes(self):
        return sum(f.stat().st_size for d in self.out_dirs if d.is_dir()
                   for f in d.iterdir())

    # -- documents ---------------------------------------------------------

    def certify(self, slot):
        rng = self.rng
        levels, rays = int(self.shape.integers(9, 22)), int(self.shape.choice([16, 32, 64]))
        ts = 0.5 * 0.5 ** np.arange(levels)
        if slot % 2 == 0:
            f_np, objective = BUILTINS["saddle_x2_y2"][0], {"builtin": "saddle_x2_y2"}
        else:      # a scaled saddle, evaluated through the expression language
            a = float(rng.uniform(0.5, 2))
            poly = Poly(2, [[(a, (2, 0)), (-a, (0, 2))]])
            f_np, objective = poly, {"expressions": poly.exprs()}
        if slot % 3 == 0:
            L, dirs = {"full_sphere": True}, checks.lattice(2, rays)
        else:      # directions where the saddle grows, one violating at bad_at
            n = int(self.shape.integers(4, 40))
            dirs = arc(rng, n, self.shape.choice([0.0, np.pi]), np.pi / 2 - 0.1)
            if slot % 3 == 2:
                dirs[int(self.shape.integers(0, n))] = (0.0, 1.0)
            L = {"finite": dirs.tolist()}
        weak = bool(self.shape.random() < 0.3)
        doc = {"schema_version": 1, "dim_in": 2, "objective": objective,
               "K": [[1.0]], "L": L, "point": [0.0, 0.0],
               "grid": {"radius": 0.5, "levels": levels, "rays_per_level": rays,
                        "seed": 0}}
        f0 = f_np(np.zeros((1, 2)))[0]
        walk = checks.lazy(lambda: checks.walk(np.zeros(2), dirs, ts,
                                               lambda X: f_np(X) - f0, [[1.0]], weak))

        def expect(code, report):
            why = checks.check_cert_report(report["report"], walk())
            if why:
                return why
            if code != (0 if walk()[0] == "certified_on_grid" else 2):
                return f"exit {code} for verdict {walk()[0]}"
            return None
        self.add("certify", doc, expect, ["--weak"] if weak else [])

    def certify_set(self, slot):
        rng = self.rng
        kind = "named" if slot == 4 else ["poly2", "poly3"][slot % 2]
        if kind == "named":     # directions into the region: a full walk
            d, xbar = 2, np.zeros(2)
            dirs = arc(rng, 6, 0.0, 1.0)
            spec = {"named": "closed-curve"}
            V = self.curve

            def member(X):
                return checks.polygon_contains(V(), X, 1e-12)
            levels = 6
        else:
            d = 2 if kind == "poly2" else 3
            xbar = rng.uniform(-0.5, 0.5, d)
            rows = unit(rng.standard_normal((d + 1, d)))
            offs = rows @ xbar - np.where(self.shape.random(d + 1) < 0.5, 0.0, 0.2)
            spec = {"polyhedron": {"rows": rows.tolist(), "offsets": offs.tolist()}}
            dirs = unit(rng.standard_normal((int(self.shape.integers(8, 33)), d)))

            def member(X):
                return np.all(X @ rows.T >= offs - TOL, axis=1)
            levels = int(self.shape.integers(8, 16))
        k_rows = np.eye(d)
        ts = 0.5 * 0.5 ** np.arange(levels)
        doc = {"set": spec, "K": k_rows.tolist(), "L": {"finite": dirs.tolist()},
               "point": xbar.tolist(), "grid": {"levels": levels}}
        walk = checks.lazy(lambda: checks.walk(xbar, dirs, ts, lambda X: X - xbar,
                                               k_rows, False, member))

        def expect(code, report):
            why = checks.check_cert_report(report["report"], walk())
            if why:
                return why
            if code != (0 if walk()[0] == "certified_on_grid" else 2):
                return f"exit {code} for verdict {walk()[0]}"
            if d == 2 and report.get("svg") != "certify-set.svg":
                return "2-D certify-set report names no SVG"
            return None
        self.add("certify-set", doc, expect)

    def first_order(self, slot):
        rng = self.rng
        poly = Poly(2, [[(float(rng.uniform(-1, 1)), (1, 0)),
                         (float(rng.uniform(-1, 1)), (0, 1)),
                         (float(rng.uniform(-1, 1)), (2, 0))]])
        xbar = rng.uniform(-0.5, 0.5, 2)
        L = arc(rng, int(self.shape.integers(3, 9)), rng.uniform(0, 2 * np.pi), 2.0)
        dirs = L[:3] * rng.uniform(0.5, 2.0, (3, 1))
        J = poly.jacobian(xbar)
        doc = {"dim_in": 2, "objective": {"expressions": poly.exprs()}, "K": [[1.0]],
               "L": {"finite": L.tolist()}, "point": xbar.tolist(),
               "directions": dirs.tolist()}

        def expect(code, report):
            flags = []
            for u, c in zip(dirs, report["checks"]):
                if not close(c["image"], J @ u, 1e-6):
                    return "derivative image differs from the analytic Jacobian"
                flags.append(bool(-(J @ u)[0] > TOL))
            if [c["violated"] for c in report["checks"]] != flags:
                return "violation flags differ from the analytic images"
            if code != (2 if any(flags) else 0) or report["holds"] == any(flags):
                return f"exit {code} / holds {report['holds']} for flags {flags}"
            return None
        self.add("first-order", doc, expect)

    def tangent(self, slot):
        rng = self.rng
        d = int(self.shape.integers(2, 4))
        xbar = rng.uniform(-0.5, 0.5, d)
        if slot % 4 == 3:    # sampled path: a direction pointing into a box
            rows = np.vstack([np.eye(d), -np.eye(d)])
            offs = np.concatenate([xbar - 1.0, -(xbar + 1.0)])
            u = unit(rng.standard_normal(d))
            doc = {"set": {"polyhedron": {"rows": rows.tolist(), "offsets": offs.tolist()}},
                   "point": xbar.tolist(), "direction": u.tolist()}

            def expect(code, report):
                ok = report["method"] == "sampled" and report["status"] == "member"
                return None if ok and code == 0 else \
                    f"sampled tangent: {report['status']}, exit {code}"
            self.add("tangent", doc, expect)
            return
        nrows = d + 1
        rows = unit(rng.standard_normal((nrows, d)))
        active = self.shape.random(nrows) < 0.5
        offs = rows @ xbar - np.where(active, 0.0, 0.3)
        L = unit(rng.standard_normal((int(self.shape.integers(3, 8)), d)))
        act = rows[np.abs(rows @ xbar - offs) <= TOL]
        rays = [ell for ell in L if not len(act) or np.all(act @ ell >= -TOL)]
        u = L[int(self.shape.integers(0, len(L)))] * rng.uniform(0.5, 2.0) \
            if slot % 2 == 0 else rng.standard_normal(d)
        member = any(np.linalg.norm(unit(u) - r) <= 1e-9 for r in rays)
        doc = {"set": {"polyhedron": {"rows": rows.tolist(), "offsets": offs.tolist()}},
               "point": xbar.tolist(), "direction": u.tolist(),
               "L": {"finite": L.tolist()}}

        def expect(code, report):
            want = "member" if member else "nonmember"
            ok = report["method"] == "exact_polyhedral" and report["status"] == want
            return None if ok and code == (0 if member else 2) else \
                f"exact tangent: {report['status']}, expected {want}"
        self.add("tangent", doc, expect)

    def multiplier_doc(self, n, m):
        rng = self.rng
        J = rng.standard_normal((m, n))
        nw = int(self.shape.integers(m, m + 3))
        rows, e = cone_rows(rng, m, nw)
        L = unit(rng.standard_normal((int(self.shape.integers(n, 2 * n + 4)), n)))
        doc = {"dim_in": n, "objective": {"expressions": linear(J).exprs()},
               "K": rows.tolist(), "L": {"finite": L.tolist()},
               "point": [0.0] * n}
        return doc, J, rows, e, L

    def kkt(self, slot):
        rng = self.rng
        n, m = int(self.shape.integers(2, 4)), int(self.shape.integers(1, 3))
        doc, J, rows, e, L = self.multiplier_doc(n, m)
        nmu = int(self.shape.integers(0, 3))
        g_mu = unit(rng.standard_normal((nmu, n)))
        active = self.shape.random(nmu) < 0.6
        mu = [linear(g[None, :]).exprs()[0] + ("" if a else " - 0.5")
              for g, a in zip(g_mu, active)]
        doc.update({"e": e.tolist(), "constraint": {"mu": mu}})
        exists = checks.lazy(lambda: checks.kkt_exists(rows, J, e, L, g_mu, active,
                                                       np.zeros((0, n))))

        def expect(code, report):
            mult = report["multipliers"]
            if code != (0 if exists() else 2) or (mult is not None) != exists():
                return f"exit {code}, HiGHS says multipliers {'exist' if exists() else 'do not'}"
            if mult is None:
                return None
            ystar, res = np.array(mult["ystar"]), -np.array(mult["residual_in_Lpolar"])
            ok = (close(ystar @ e, 1.0) and checks.in_generated_cone(rows, ystar)
                  and checks.rows_hold(L, res))
            return None if ok else "KKT report fails its defining rows"
        self.add("kkt", doc, expect)

    def fritz_john(self, slot):
        rng = self.rng
        n, m = int(self.shape.integers(2, 4)), int(self.shape.integers(1, 3))
        doc, J, rows, _, L = self.multiplier_doc(n, m)
        q_rows = Jg = None
        if slot % 2:
            Jg = rng.standard_normal((1, n))
            q_rows = np.array([[1.0]])
            doc.update({"g": {"expressions": linear(Jg).exprs()}, "Q": [[1.0]]})
        exists = checks.lazy(lambda: checks.fritz_john_exists(rows, J, L, q_rows, Jg))

        def expect(code, report):
            mult = report["multipliers"]
            if code != (0 if exists() else 2) or (mult is not None) != exists():
                return f"exit {code}, HiGHS says a pair {'exists' if exists() else 'does not'}"
            if mult is None:
                return None
            stat = J.T @ np.array(mult["ystar"])
            if Jg is not None:
                stat = stat + Jg.T @ np.array(mult["zstar"])
            return None if checks.in_generated_cone(rows, mult["ystar"]) and \
                checks.rows_hold(L, stat) else "Fritz John report fails its rows"
        self.add("fritz-john", doc, expect)

    def penalized(self, slot):
        rng = self.rng
        n = int(self.shape.integers(2, 4))
        doc, J, _, _, L = self.multiplier_doc(n, 1)
        A = unit(rng.standard_normal((n + 1, n)))
        active = self.shape.random(n + 1) < 0.5
        offs = np.where(active, 0.0, -0.5)
        doc["A"] = {"polyhedron": {"rows": A.tolist(), "offsets": offs.tolist()}}
        exists = checks.lazy(lambda: checks.decomposes(-A[active], -J[0], L))

        def expect(code, report):
            w = report["witness"]
            if code != (0 if exists() else 2) or (w is not None) != exists():
                return f"exit {code}, HiGHS says a decomposition {'exists' if exists() else 'does not'}"
            if w is None:
                return None
            a, q = np.array(w["normal_weights"]), np.array(w["polar_part"])
            ok = (checks.rows_hold(np.eye(len(a)), a) and checks.rows_hold(-L, q)
                  and close(-A[active].T @ a + q, -J[0]))
            return None if ok else "penalized report fails its rows"
        self.add("penalized", doc, expect)

    def gerstewitz(self, slot):
        rng = self.rng
        m = int(self.shape.integers(2, 5))
        rows, e = cone_rows(rng, m, int(self.shape.integers(m, 2 * m + 2)))
        y = rng.standard_normal(m)
        s = float(np.max((rows @ y) / (rows @ e)))
        doc = {"K": rows.tolist(), "e": e.tolist(), "y": y.tolist()}

        def expect(code, report):
            v = np.array(report["subgradient"])
            ok = (code == 0 and close(report["value"], s) and close(v @ e, 1.0)
                  and close(v @ y, s) and checks.in_generated_cone(rows, v))
            return None if ok else "gerstewitz report fails s(y), v(e) = 1 or v in K+"
        self.add("gerstewitz", doc, expect)

    def mintime(self, slot):
        rng = self.rng
        if slot % 2 == 0:
            L = arc(rng, int(self.shape.integers(3, 8)), rng.uniform(0, 2 * np.pi), 1.2)
            x = rng.uniform(-1, 1, 2)
            step = L[0] * rng.uniform(0.5, 2.0) if self.shape.random() < 0.5 \
                else rng.standard_normal(2)
            doc = {"target": {"point": (x + step).tolist()}, "L": {"finite": L.tolist()},
                   "point": x.tolist()}
            flags = []
            d = (x + step) - x          # the program's target-minus-point step
            value = checks.lazy(lambda: float(np.linalg.norm(d))
                                if checks.planar_cone_contains(L, d[None, :])[0] else np.inf)
        else:
            d_ = int(self.shape.integers(2, 4))
            S, c = cone_rows(rng, d_, d_ + 1)
            x = rng.uniform(-1, 1, d_)
            centre = x + (2.0 if self.shape.random() < 0.5 else -2.0) * c
            box = np.vstack([np.eye(d_), -np.eye(d_)])
            off = np.concatenate([centre - 0.5, -(centre + 0.5)])
            ge = [(np.append(r, 0.0), 0.0) for r in S]
            for k in range(d_):
                ge.append((np.append(np.eye(d_)[k], 1.0), 0.0))
                ge.append((np.append(-np.eye(d_)[k], 1.0), 0.0))
            ge += [(np.append(r, 0.0), b - float(r @ x)) for r, b in zip(box, off)]

            def linf_time():
                status, sol = checks.highs(d_ + 1, ge,
                                           objective=np.append(np.zeros(d_), 1.0))
                return float(sol[-1]) if status == "feasible" else np.inf
            value = checks.lazy(linf_time)
            doc = {"target": {"polyhedron": {"rows": box.tolist(), "offsets": off.tolist()}},
                   "L": {"cone_section": S.tolist()}, "point": x.tolist()}
            flags = ["--norm", "linf"]

        def expect(code, report):
            got, want = report["value"], value()
            if np.isinf(want):
                return None if got == "inf" else f"minimal time {got}, expected inf"
            return None if code == 0 and got != "inf" and \
                abs(got - want) <= 1e-6 * (1 + want) else \
                f"minimal time {got}, expected {want}"
        self.add("mintime", doc, expect, flags)

    def openness(self, slot):
        rng = self.rng
        L = arc(rng, int(self.shape.integers(2, 5)), rng.uniform(0, 2 * np.pi), 2.0)
        C = unit(rng.standard_normal((int(self.shape.integers(1, 3)), 2)))
        doc = {"dim_in": 2, "objective": {"builtin": "identity_2"},
               "K": [[1.0, 0.0], [0.0, 1.0]], "L": {"finite": L.tolist()},
               "point": [0.0, 0.0], "C": {"finite": C.tolist()}}
        expected = checks.lazy(
            lambda: openness_expected(BUILTINS["identity_2"][0], np.zeros(2), L, C)[0])

        def expect(code, report):
            status = expected()
            return None if report["status"] == status and \
                code == (0 if status == "witness" else 2) else \
                f"openness {report['status']}, recomputation gives {status}"
        self.add("openness", doc, expect)

    def malformed(self, slot):
        base = {"schema_version": 1, "dim_in": 2, "objective": {"builtin": "saddle_x2_y2"},
                "K": [[1.0]], "L": {"finite": [[1.0, 0.0]]}, "point": [0.0, 0.0],
                "grid": {"levels": 5, "rays_per_level": 4}}
        kind = slot % 6
        if kind == 0:
            self.add("certify", None, "error", raw='{"dim_in": 2, "K": [[1.0]')
        elif kind == 1:
            doc = dict(base)
            del doc["K"]
            self.add("first-order", dict(doc, directions=[[1.0, 0.0]]), "error")
        elif kind == 2:
            self.add("certify", dict(base, objective={"expressions": ["x0^^2"]}), "error")
        elif kind == 3:
            self.add("certify", dict(base, objective={"expressions": ["1/x0"]}), "error")
        elif kind == 4:
            self.add("gerstewitz", {"K": [[1.0, 0.0], [0.0, 1.0]], "e": [1.0, -1.0],
                                    "y": [0.5, 0.5]}, "error")
        else:
            self.add("kkt", dict(base, objective={"builtin": "no_such_map"},
                                 e=[1.0]), "error")


PLAN = [("certify", 12), ("certify_set", 10), ("first_order", 8), ("tangent", 10),
        ("kkt", 8), ("fritz_john", 8), ("penalized", 8), ("gerstewitz", 8),
        ("mintime", 8), ("openness", 4)]
MALFORMED = 10         # of 94 documents, about one in ten


def build(dp, seed: int, workdir) -> Workload:
    importlib.import_module("dirpareto.cli")
    fx = Fixtures(dp, seed, workdir)
    steps = [(family, i) for family, n in PLAN for i in range(n)]
    steps += [("malformed", i) for i in range(MALFORMED)]
    families = [name for name, _ in PLAN] + ["malformed"]
    for j in np.random.default_rng([seed, 2018]).permutation(len(steps)):
        family, i = steps[j]
        fx.shape, fx.rng = instance_rngs(seed, 2018, families.index(family), i)
        getattr(fx, family)(i)
    fresh = sum(not rec["out_exists"] for rec in fx.inputs)
    return Workload(fx.queries, inputs=fx.inputs,
                    notes={"out targets": f"{fresh}/{len(fx.queries)} do not exist yet",
                           "malformed documents": f"{MALFORMED}/{len(fx.queries)}"},
                    report_bytes=fx.report_bytes)
