"""The four benchmark workloads: seeded inputs, one timed pass, output checks.

Each workload generates its distance matrices and weights itself, with the
formulas of the nlhodge generators, and relabels the points with a
permutation drawn from the seed (seed 0 keeps the identity). nlhodge only
ever sees the relabeled arrays, so metric validation runs inside the timed
pass, where every user pays it. Every expected value below is invariant
under relabeling.

All calls go through module attributes (`nl.hodge.build_weighted_complex`),
so the wrappers that `tracing.install` puts there see them.
"""

from __future__ import annotations

import contextlib
import io
import math

import numpy as np


def circle(n: int):
    idx = np.arange(n)
    k = np.abs(idx[:, None] - idx[None, :])
    k = np.minimum(k, n - k)
    step = 2.0 * np.pi / n
    return step * k, np.full(n, 2.0 * np.pi / n)


def interval(n: int):
    x = np.linspace(0.0, 1.0, n)
    return np.abs(x[:, None] - x[None, :]), np.full(n, 1.0 / n), x


def sphere(n: int):
    i = np.arange(n)
    z = 1.0 - 2.0 * (i + 0.5) / n
    golden = (1.0 + np.sqrt(5.0)) / 2.0
    phi = 2.0 * np.pi * i / golden
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    pts = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    dots = np.clip(pts @ pts.T, -1.0, 1.0)
    crosses = np.linalg.norm(np.cross(pts[:, None, :], pts[None, :, :]), axis=2)
    dist = np.arctan2(crosses, dots)
    np.fill_diagonal(dist, 0.0)
    return 0.5 * (dist + dist.T), np.full(n, 4.0 * np.pi / n)


class Relabeler:
    """Point permutations drawn in a fixed order from one seed."""

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = np.random.default_rng(seed)

    def __call__(self, dist, weights):
        """(relabeled dist, relabeled weights, new label of each old point)."""
        n = weights.size
        perm = np.arange(n) if self.seed == 0 else self.rng.permutation(n)
        new_label = np.empty(n, dtype=int)
        new_label[perm] = np.arange(n)
        return dist[np.ix_(perm, perm)], weights[perm], new_label


class ScaleProbe:
    """Circle n=1024, strict rips at 7 steps, p_max=1: the `betti` call sequence."""

    N = 1024
    EPS = 7 * (2.0 * np.pi / N)  # strict: six neighbours on each side

    def __init__(self, seed, workdir):
        self.dist, self.weights, _ = Relabeler(seed)(*circle(self.N))
        self.expected = {"dims": (1024, 6144, 15360), "betti": (1, 1)}

    def corrupt(self):
        self.expected["betti"] = (1, 2)

    def run(self, nl):
        space = nl.space.MetricMeasureSpace(self.dist, self.weights)
        cx = nl.hodge.build_weighted_complex(
            space, nl.neighborhoods.rips_system(self.EPS), nl.kernels.fractional_kernel(1, 0.5), 1
        )
        betti = nl.cohomology.exact_betti(cx)
        reports = [nl.hodge.hodge_report(cx, p, oracle=betti.betti[p]) for p in range(2)]
        return cx, betti, reports

    def check(self, out):
        cx, betti, reports = out
        return [
            ("dims", tuple(cx.dim(p) for p in range(3)) == self.expected["dims"]),
            ("exact-betti", tuple(betti.betti) == self.expected["betti"]),
            ("spectral-betti", tuple(r.harmonic_dim for r in reports) == self.expected["betti"]),
            ("unflagged", not any(r.flagged for r in reports)),
        ]


class Sweep:
    """Sphere n=200, d=2, p_max=2, 3 x 3 (eps, alpha) grid through `cli.main sweep`.

    The input reaches the CLI as distance and weight files. The eps grid tops
    out at 0.5 rather than 0.55, which keeps a pass near 4 s so a run holds
    several passes and sweep.csv can be compared byte for byte between them.
    """

    N = 200
    EPS_GRID = (0.35, 0.45, 0.5)
    ALPHA_GRID = (0.5, 1.0, 1.5)
    MIN_PASSES = 2

    def __init__(self, seed, workdir):
        self.workdir = workdir
        dist, weights, _ = Relabeler(seed)(*sphere(self.N))
        self.dist_path = workdir / "sphere_dist.csv"
        self.weights_path = workdir / "sphere_weights.txt"
        np.savetxt(self.dist_path, dist, fmt="%.17g", delimiter=",")
        np.savetxt(self.weights_path, weights, fmt="%.17g")
        self.expected = {0.35: (1, 53, 0), 0.45: (1, 0, 1), 0.5: (1, 0, 1)}
        self.passes = 0
        self.first_csv = None

    def corrupt(self):
        self.expected[0.45] = (1, 1, 1)

    def run(self, nl):
        self.passes += 1
        out = self.workdir / f"sweep-{self.passes}"
        argv = [
            "sweep", "--space", "file", "--dist", str(self.dist_path),
            "--weights", str(self.weights_path), "--d", "2", "--pmax", "2",
            "--eps-grid", ",".join(map(str, self.EPS_GRID)),
            "--alpha-grid", ",".join(map(str, self.ALPHA_GRID)), "--out", str(out),
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = nl.cli.main(argv)
        return rc, out / "sweep.csv"

    def check(self, out):
        rc, path = out
        if not path.is_file():
            return [("exit-code", rc == 0), ("csv-written", False)]
        data = path.read_bytes()
        lines = data.decode().splitlines()
        header = lines[0].split(",")
        cols = [header.index(f"betti_{p}") for p in range(3)]
        rows = [line.split(",") for line in lines[1:]]
        n_grid = len(self.EPS_GRID) * len(self.ALPHA_GRID)
        checks = [("exit-code", rc == 0), ("grid-rows", len(rows) == n_grid)]
        for row in rows:
            betti = tuple(int(row[c]) for c in cols)
            ok = betti == self.expected[float(row[0])]
            checks.append((f"betti-eps{row[0]}-alpha{row[1]}", ok))
        if self.first_csv is None:
            self.first_csv = data
        else:
            checks.append(("csv-byte-identical", data == self.first_csv))
        return checks


class Gluing:
    """circle32 (hausdorff 0.5) and interval32 (hausdorff 0.2), p_max=2, default covers:
    the `verify --suite poincare` then `--suite mv` call sequences."""

    SPACES = (("circle", 0.5), ("interval", 0.2))

    def __init__(self, seed, workdir):
        relabel = Relabeler(seed)
        self.inputs = {
            "circle": relabel(*circle(32))[:2],
            "interval": relabel(*interval(32)[:2])[:2],
        }
        self.expected = {"circle": (1, 1), "interval": (1, 0)}

    def corrupt(self):
        self.expected["circle"] = (1, 2)

    def _complex(self, nl, name, eps):
        space = nl.space.MetricMeasureSpace(*self.inputs[name])
        system = nl.neighborhoods.hausdorff_system(eps)
        cx = nl.hodge.build_weighted_complex(space, system, nl.kernels.fractional_kernel(1, 0.5), 2)
        return cx, nl.covers.default_cover(space, system)

    def run(self, nl):
        poincare, mv, nerve = {}, {}, {}
        for name, eps in self.SPACES:
            cx, cov = self._complex(nl, name, eps)
            poincare[name] = nl.covers.poincare_suite(cov, cx, p_check=2, max_depth=2)
        for name, eps in self.SPACES:
            cx, cov = self._complex(nl, name, eps)
            mv[name] = [nl.covers.mayer_vietoris_check(cx, cov, p=p, q_max=1) for p in range(3)]
            nerve[name] = nl.covers.cech_nerve_betti(cov, q_max=1)
        return poincare, mv, nerve

    def check(self, out):
        poincare, mv, nerve = out
        checks = []
        for name, _ in self.SPACES:
            results = poincare[name]
            worst = max((r.max_residual for r in results), default=math.inf)
            checks.append((f"homotopy-identity-{name}", worst <= 1e-12))
            for cert in mv[name]:
                checks.append((f"mv-{name}-p{cert.degree}", cert.exact and cert.injective))
            ok = tuple(nerve[name].betti[:2]) == self.expected[name]
            checks.append((f"cech-nerve-{name}", ok))
        return checks


class CapacityLadder:
    """The default removability ladder (n 50..800, alpha 0.5 and 1.5, eps 0.25),
    driven through build_capacity_problem and capacity."""

    RESOLUTIONS = (50, 100, 200, 400, 800)
    ALPHAS = (0.5, 1.5)
    EPS = 0.25
    # capacities at seed 0; relabeling moves them by about 1e-15
    SEED0 = {
        0.5: (0.59859658671420279, 0.52611717871205865, 0.45615636692061001,
              0.3854575389414665, 0.31735906741390535),
        1.5: (0.94411741517352288, 0.94347156599566995, 0.94354681448482025,
              0.94367117315507765, 0.94385236207031387),
    }

    def __init__(self, seed, workdir):
        relabel = Relabeler(seed)
        self.inputs = []
        for n in self.RESOLUTIONS:
            dist, weights, x = interval(n)
            dist, weights, new_label = relabel(dist, weights)
            self.inputs.append((dist, weights, new_label[int(np.argmin(np.abs(x - 0.5)))]))
        self.expected = {0.5: "removable", 1.5: "non-removable"}

    def corrupt(self):
        self.expected[1.5] = "removable"

    def run(self, nl):
        caps = {}
        for alpha in self.ALPHAS:
            kernel = nl.kernels.fractional_kernel(1.0, alpha)
            caps[alpha] = []
            for dist, weights, target in self.inputs:
                space = nl.space.MetricMeasureSpace(dist, weights)
                problem = nl.capacity.build_capacity_problem(
                    space, nl.neighborhoods.rips_system(self.EPS), kernel, [target]
                )
                caps[alpha].append(nl.capacity.capacity(problem).value)
        return caps

    @staticmethod
    def verdict(resolutions, caps) -> str:
        """The classification rule of `removability_sweep` at its default thresholds."""
        caps = np.asarray(caps)
        slope = np.polyfit(np.log(np.asarray(resolutions, dtype=float)), np.log(caps), 1)[0]
        if np.all(np.diff(caps) < 0) and slope < -0.2:
            return "removable"
        return "non-removable" if caps.max() / caps.min() < 1.25 else "inconclusive"

    def check(self, out):
        checks = []
        for alpha in self.ALPHAS:
            for n, got, want in zip(self.RESOLUTIONS, out[alpha], self.SEED0[alpha]):
                checks.append((f"capacity-a{alpha}-n{n}", abs(got - want) <= 1e-9 * abs(want)))
            verdict = self.verdict(self.RESOLUTIONS, out[alpha])
            checks.append((f"verdict-a{alpha}", verdict == self.expected[alpha]))
        return checks


WORKLOADS = {
    "scale_probe": ScaleProbe,
    "sweep": Sweep,
    "gluing": Gluing,
    "capacity_ladder": CapacityLadder,
}
