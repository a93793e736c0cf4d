import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cli(*args, env_extra=None, cwd=None):
    env = dict(os.environ)
    env.pop("NLH_THREADS", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "nlhodge", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd or REPO,
    )


def write_file_space(tmp_path, weights_line="0.25\n0.25\n0.25\n0.25\n"):
    x = np.array([0.0, 0.4, 0.8, 1.2])
    dist = np.abs(x[:, None] - x[None, :])
    dist_path = tmp_path / "dist.csv"
    with open(dist_path, "w") as fh:
        for row in dist:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    weights_path = tmp_path / "weights.txt"
    weights_path.write_text(weights_line)
    return str(dist_path), str(weights_path)


# --- betti ---------------------------------------------------------------------


def test_betti_circle_reports_and_exit_code(tmp_path):
    out = tmp_path / "reports"
    proc = run_cli(
        "betti", "--space", "circle", "--n", "12", "--system", "rips",
        "--eps", "1.1", "--alpha", "0.5", "--pmax", "1", "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    assert "p=0 betti=1" in proc.stdout
    assert "p=1 betti=1" in proc.stdout
    betti = json.loads((out / "betti_report.json").read_text())
    assert betti["schema"] == 2
    assert betti["betti"] == [1, 1]
    assert betti["uncertain"] == [False, False]
    hodge = json.loads((out / "hodge_report.json").read_text())
    assert hodge["schema"] == 2
    assert hodge["agreement"]["all_agree"] is True
    assert hodge["agreement"]["status"] == ["agree", "agree"]
    assert [d["status"] for d in hodge["degrees"]] == ["agree", "agree"]
    assert [d["degree"] for d in hodge["degrees"]] == [0, 1]


def test_betti_on_a_file_space(tmp_path):
    dist_path, weights_path = write_file_space(tmp_path)
    proc = run_cli(
        "betti", "--space", "file", "--dist", dist_path, "--weights", weights_path,
        "--system", "rips", "--eps", "0.5", "--alpha", "0.5", "--pmax", "0",
    )
    assert proc.returncode == 0, proc.stderr
    assert "betti=1" in proc.stdout  # a connected path of four points


def test_reports_are_byte_identical_across_thread_caps(tmp_path):
    from nlhodge.space import _path_certified, gen_sphere

    # n=48 has three row blocks, so cap 4 scans the metric on three threads.
    # The path certificate proves both circles metric without the scan; the
    # sphere sample, read from a file, is the input that reaches it.
    sphere = gen_sphere(48).dist
    assert not _path_certified(sphere)
    sphere_path = tmp_path / "sphere48.csv"
    np.savetxt(sphere_path, sphere, fmt="%.17g", delimiter=",")
    cases = {
        "12": (["--space", "circle", "--n", "12", "--eps", "1.1", "--pmax", "1"], "p=1 betti=1"),
        "48": (["--space", "circle", "--n", "48", "--eps", "0.3", "--pmax", "1"], "p=1 betti=1"),
        "s48": (
            ["--space", "file", "--dist", str(sphere_path), "--eps", "0.8", "--d", "2",
             "--pmax", "2"],
            "p=2 betti=1",
        ),
    }
    for n, (space_args, expected) in cases.items():
        outs = []
        for label, threads in (("a", "1"), ("b", "4")):
            out = tmp_path / f"{label}{n}"
            proc = run_cli(
                "betti", *space_args, "--system", "rips", "--alpha", "0.5", "--out", str(out),
                env_extra={"NLH_THREADS": threads},
            )
            assert proc.returncode == 0, proc.stderr
            assert expected in proc.stdout
            outs.append(out)
        for name in ("betti_report.json", "hodge_report.json"):
            a = (outs[0] / name).read_bytes()
            b = (outs[1] / name).read_bytes()
            assert a == b, f"{name} differs between thread caps at n={n}"
            assert a.endswith(b"\n")


@pytest.mark.parametrize("branch", ["dense", "sparse"])
def test_betti_reports_keep_their_bytes(tmp_path, monkeypatch, capsys, branch):
    # circle n=12 through each eigensolve branch: the sparse one (cutoff 2)
    # computes only the low end, so its hodge_report.json lists fewer and
    # slightly different eigenvalues; the exact betti_report.json is shared
    from nlhodge import cli, hodge

    pinned = {
        "dense": "fadb653e8174d9dc1ea1f9dbd30bb37970e1f0e1bba95f3a94f93473b8b052a0",
        "sparse": "d7e19eadc5286308f43fa8327317d47a875a66391e3f26046baa8feed6e8bbb2",
    }
    if branch == "sparse":
        monkeypatch.setattr(hodge, "DENSE_EIG_CUTOFF", 2)
    monkeypatch.delenv("NLH_THREADS", raising=False)
    rc = cli.main([
        "betti", "--space", "circle", "--n", "12", "--system", "rips",
        "--eps", "1.1", "--alpha", "0.5", "--pmax", "1", "--out", str(tmp_path),
    ])
    assert rc == 0
    assert capsys.readouterr().out.splitlines() == [
        "p=0 betti=1 harmonic=1 dim=12", "p=1 betti=1 harmonic=1 dim=24",
    ]
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("betti_report.json", "hodge_report.json")
    }
    assert digests == {
        "betti_report.json": "ca035e4549f5ae4dcb940e22705e8fe143d59a802a9a14305eb46888ee5325d8",
        "hodge_report.json": pinned[branch],
    }


def test_a_bad_kernel_table_row_exits_one(tmp_path):
    table = tmp_path / "pairs.txt"
    table.write_text("0, 1, 1.0\n0, 2, nan\n1, 2, 1.0\n")
    proc = run_cli(
        "betti", "--space", "circle", "--n", "3", "--eps", "5",
        "--kernel", "table", "--kernel-table", str(table),
    )
    assert proc.returncode == 1
    assert proc.stderr == f"error: {table}:2: non-finite value 'nan'\n"


def test_table_kernel_validates_the_space_once(tmp_path, monkeypatch, capsys):
    from nlhodge import cli
    from nlhodge.space import MetricMeasureSpace

    n = 6
    table = tmp_path / "pairs.txt"
    table.write_text("".join(f"{i}, {j}, 1.0\n" for i in range(n) for j in range(i + 1, n)))
    calls = []
    validate = MetricMeasureSpace.__post_init__

    def counted(self):
        calls.append(self)
        validate(self)

    monkeypatch.setattr(MetricMeasureSpace, "__post_init__", counted)
    monkeypatch.delenv("NLH_THREADS", raising=False)
    rc = cli.main([
        "betti", "--space", "circle", "--n", str(n), "--system", "rips", "--eps", "1.1",
        "--kernel", "table", "--kernel-table", str(table), "--pmax", "1",
    ])
    assert rc == 0
    assert len(calls) == 1
    out = capsys.readouterr().out
    assert "p=0 betti=1" in out and "p=1 betti=1" in out


# --- sweep ----------------------------------------------------------------------


def test_sweep_writes_csv(tmp_path):
    out = tmp_path / "sweep"
    proc = run_cli(
        "sweep", "--space", "circle", "--n", "10", "--system", "rips",
        "--eps-grid", "0.8,1.2", "--alpha-grid", "0.5,1.5", "--pmax", "1",
        "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    text = (out / "sweep.csv").read_text()
    lines = text.splitlines()
    assert lines[0] == (
        "eps,alpha,betti_0,harmonic_0,min_pos_eig_0,betti_1,harmonic_1,min_pos_eig_1"
    )
    assert len(lines) == 1 + 2 * 2  # one row per (eps, alpha) pair
    assert proc.stdout.startswith("eps,alpha,")
    first = lines[1].split(",")
    assert float(first[0]) == 0.8
    assert first[2] == "1"  # connected at every scale in the grid


def test_sweep_honours_the_kernel(monkeypatch, capsys):
    from nlhodge import cli

    monkeypatch.delenv("NLH_THREADS", raising=False)
    grid = ["sweep", "--space", "circle", "--n", "10", "--system", "rips",
            "--eps-grid", "0.8,1.2", "--alpha-grid", "0.5", "--pmax", "1"]
    csvs = {}
    for kernel in ("fractional", "constant"):
        assert cli.main(grid + ["--kernel", kernel]) == 0
        csvs[kernel] = capsys.readouterr().out
    assert csvs["constant"] != csvs["fractional"]
    assert cli.main(grid + ["--kernel", "truncated"]) == 1
    assert "--eps-trunc" in capsys.readouterr().err


def test_sweep_takes_eps_and_alpha_only_from_its_grids(capsys):
    # --eps and --alpha belong to betti; the sweep reads its grids alone
    from nlhodge import cli

    parser = cli.build_parser()
    betti = parser.parse_args(["betti", "--eps", "0.3", "--alpha", "0.5"])
    assert (betti.eps, betti.alpha) == (0.3, 0.5)
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(["sweep", "--eps", "0.3"])
    assert exc.value.code == 1
    assert "ambiguous option: --eps could match" in capsys.readouterr().err
    # argparse takes the unique prefix --alpha for --alpha-grid
    sweep = parser.parse_args(["sweep", "--alpha", "0.5"])
    assert sweep.alpha_grid == "0.5"
    assert not hasattr(sweep, "eps") and not hasattr(sweep, "alpha")


def test_sweep_runs_exact_betti_once_per_eps(monkeypatch, capsys):
    from nlhodge import cli, cohomology

    calls = []
    exact = cohomology.exact_betti

    def counted(*args, **kwargs):
        calls.append(args)
        return exact(*args, **kwargs)

    monkeypatch.setattr(cohomology, "exact_betti", counted)
    monkeypatch.delenv("NLH_THREADS", raising=False)
    rc = cli.main([
        "sweep", "--space", "circle", "--n", "10", "--system", "rips",
        "--eps-grid", "0.8,1.2", "--alpha-grid", "0.5,1.0,1.5", "--pmax", "1",
    ])
    assert rc == 0
    assert len(calls) == 2
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 6 and all(row.split(",")[2] == "1" for row in rows)


def test_sweep_builds_one_complex_per_eps(monkeypatch, capsys):
    # Coboundaries are built once per eps; each alpha only reweights, and its
    # row equals that of a sweep over that alpha alone.
    from nlhodge import cli, hodge

    calls = []
    build = hodge.build_coboundary

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(hodge, "build_coboundary", counted)
    argv = ["sweep", "--space", "circle", "--n", "10", "--system", "rips",
            "--eps-grid", "0.8,1.2", "--pmax", "1"]
    assert cli.main(argv + ["--alpha-grid", "0.5,1.0,1.5"]) == 0
    assert len(calls) == 2 * 2  # two eps, coboundaries of degrees 0 and 1
    rows = capsys.readouterr().out.splitlines()[1:]
    for i, alpha in enumerate(["0.5", "1.0", "1.5"]):
        assert cli.main(argv + ["--alpha-grid", alpha]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == rows[i::3]


def test_sweep_reports_once_per_eps_for_an_alpha_free_kernel(tmp_path, monkeypatch, capsys):
    # The constant kernel ignores alpha: each (eps, degree) report serves every
    # alpha, and the CSV keeps the bytes it had when each alpha ran its own.
    import hashlib

    from nlhodge import cli, hodge

    calls = []
    report = hodge.hodge_report

    def counted(*args, **kwargs):
        calls.append(args)
        return report(*args, **kwargs)

    monkeypatch.setattr(hodge, "hodge_report", counted)
    monkeypatch.delenv("NLH_THREADS", raising=False)
    out = tmp_path / "sweep"
    rc = cli.main([
        "sweep", "--space", "circle", "--n", "10", "--system", "rips",
        "--eps-grid", "0.8,1.2", "--alpha-grid", "0.5,1.0,1.5", "--pmax", "1",
        "--kernel", "constant", "--out", str(out),
    ])
    assert rc == 0
    assert len(calls) == 2 * (1 + 1)  # two eps, degrees 0 and 1
    assert hashlib.sha256((out / "sweep.csv").read_bytes()).hexdigest() == (
        "bfce2c7077705c91e4dd7e870681b4921be3a9609a3c14a929947eed958806ee"
    )
    assert len(capsys.readouterr().out.splitlines()) == 1 + 2 * 3


def test_sweep_parses_the_kernel_table_once(tmp_path, monkeypatch, capsys):
    from nlhodge import cli, kernels

    n = 6
    table = tmp_path / "pairs.txt"
    table.write_text("".join(f"{i}, {j}, 1.0\n" for i in range(n) for j in range(i + 1, n)))
    calls = []
    load = kernels.load_kernel_table

    def counted(*args, **kwargs):
        calls.append(args)
        return load(*args, **kwargs)

    monkeypatch.setattr(kernels, "load_kernel_table", counted)
    monkeypatch.delenv("NLH_THREADS", raising=False)
    rc = cli.main([
        "sweep", "--space", "circle", "--n", str(n), "--system", "rips",
        "--eps-grid", "1.1,1.5", "--alpha-grid", "0.5,1.0,1.5",
        "--kernel", "table", "--kernel-table", str(table), "--pmax", "1",
    ])
    assert rc == 0
    assert len(calls) == 1
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(rows) == 6
    # the table ignores alpha: rows of one eps differ only in the alpha column
    for first, *rest in (rows[:3], rows[3:]):
        assert all(r[:1] + r[2:] == first[:1] + first[2:] for r in rest)


def _sweep_rows(capsys, *args):
    from nlhodge import cli

    assert cli.main(["sweep", "--pmax", "1", *args]) == 0
    lines = capsys.readouterr().out.splitlines()
    return [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]


def test_sweep_min_pos_eig_past_64_harmonic_forms(tmp_path, monkeypatch, capsys):
    # 70 two-point clusters: 70 harmonic 0-forms, then 70 positive eigenvalues.
    # The cell used to read only the lowest 64 eigenvalues and print nan.
    monkeypatch.delenv("NLH_THREADS", raising=False)
    x = (np.arange(70)[:, None] + np.array([0.0, 0.01])).ravel()
    dist = tmp_path / "clusters.csv"
    np.savetxt(dist, np.abs(x[:, None] - x[None, :]), delimiter=",", fmt="%.17g")
    (row,) = _sweep_rows(capsys, "--space", "file", "--dist", str(dist),
                         "--eps-grid", "0.05", "--alpha-grid", "0.5")
    assert (row["betti_0"], row["harmonic_0"]) == ("70", "70")
    assert float(row["min_pos_eig_0"]) > 0.0


def test_sweep_min_pos_eig_of_a_zero_laplacian_is_nan(monkeypatch, capsys):
    # At eps 0.5 the 10-point circle has no edges: every eigenvalue of the
    # degree-0 Laplacian is a harmonic 0, so none is positive.
    monkeypatch.delenv("NLH_THREADS", raising=False)
    rows = _sweep_rows(capsys, "--space", "circle", "--n", "10",
                       "--eps-grid", "0.5", "--alpha-grid", "0.5,1.5")
    assert len(rows) == 2
    for row in rows:
        assert (row["betti_0"], row["harmonic_0"], row["min_pos_eig_0"]) == ("10", "10", "nan")


# --- verify ---------------------------------------------------------------------


def test_verify_identity_suite_passes(tmp_path):
    out = tmp_path / "v"
    proc = run_cli("verify", "--suite", "identity", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert "PASS" in proc.stdout
    assert "FAIL" not in proc.stdout
    payload = json.loads((out / "verify.json").read_text())
    assert payload["schema"] == 1
    assert payload["suite"] == "identity"
    assert payload["failed"] == 0
    assert all(c["passed"] for c in payload["checks"])
    names = {c["name"] for c in payload["checks"]}
    assert {"elementary-form-determinant", "hodge-decomposition", "multiplier-bound"} <= names


def test_verify_rejects_corrupted_weights(tmp_path):
    dist_path, weights_path = write_file_space(tmp_path, weights_line="0.25\n-0.25\n0.25\n0.25\n")
    proc = run_cli(
        "verify", "--suite", "identity", "--dist", dist_path, "--weights", weights_path
    )
    assert proc.returncode == 2
    assert "FAIL" in proc.stdout


def test_empty_distance_file_is_an_empty_space(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    proc = run_cli(
        "betti", "--space", "file", "--dist", str(empty),
        "--system", "rips", "--eps", "0.5", "--alpha", "0.5",
    )
    assert proc.returncode == 1
    assert proc.stderr.endswith("error: empty space\n"), proc.stderr
    assert "Traceback" not in proc.stderr
    out = tmp_path / "v"
    proc = run_cli("verify", "--suite", "identity", "--dist", str(empty), "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert "FAIL file-space-valid (empty space)" in proc.stdout
    checks = json.loads((out / "verify.json").read_text())["checks"]
    assert {"name": "file-space-valid", "passed": False, "detail": "empty space"} in checks
    # an empty weight sidecar fails the weight check, also without numpy's warning
    dist_path, weights_path = write_file_space(tmp_path, weights_line="")
    proc = run_cli("verify", "--suite", "identity", "--dist", dist_path, "--weights", weights_path)
    assert proc.returncode == 2
    assert "FAIL file-space-valid (weights shape (0,) does not match 4 points)" in proc.stdout
    assert proc.stderr == ""


def test_verify_records_a_missing_distance_file(tmp_path):
    missing = tmp_path / "nope.csv"
    out = tmp_path / "v"
    proc = run_cli("verify", "--suite", "identity", "--dist", str(missing), "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == ""
    detail = f"{missing} not found."
    assert f"FAIL file-space-valid ({detail})" in proc.stdout
    checks = json.loads((out / "verify.json").read_text())["checks"]
    assert {"name": "file-space-valid", "passed": False, "detail": detail} in checks


def test_verify_reports_keep_their_bytes(tmp_path):
    # identity and all gained checks; these reports must not move
    pinned = {
        ("poincare", "verify.json"):
            "e32dc84f823bba3316c9ef0c86a27b2522582cb7b4e7e03e9ee57b496fd39beb",
        ("mv", "verify.json"):
            "20e0ee0f7dd1e9a5e366f0f826247a346b563aac4938ab123112a8737e911844",
        ("capacity", "verify.json"):
            "f431b2f607698535b1e14f8898b7c3f7def2317d2dd60f1316f1f4912225f70b",
        ("capacity", "removability.csv"):
            "390f64d969452ad2282939fa866219a498706b00e8fb29d9cd1e6d8f2ac878de",
    }
    for suite in ("poincare", "mv", "capacity"):
        proc = run_cli("verify", "--suite", suite, "--out", str(tmp_path / suite))
        assert proc.returncode == 0, proc.stderr
    for (suite, name), digest in pinned.items():
        assert hashlib.sha256((tmp_path / suite / name).read_bytes()).hexdigest() == digest, name


def test_verify_recovery_suite(tmp_path):
    runs = []
    for label in ("a", "b"):
        out = tmp_path / label
        proc = run_cli("verify", "--suite", "recovery", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert [line.split(" ")[:2] for line in lines] == [
            ["PASS", "recovery-circle"], ["PASS", "recovery-interval"], ["PASS", "recovery-sphere"],
        ]
        runs.append((out / "verify.json").read_bytes())
    assert runs[0] == runs[1]
    assert "recovery-sphere (reference=[1, 0, 1] exact=[1, 0, 1] spectral=[1, 0, 1]" in lines[2]


def test_verify_recovery_fails_on_a_wrong_reference(monkeypatch, capsys):
    from nlhodge import cli, covers

    monkeypatch.setitem(covers.REFERENCE_BETTI, "circle", (1, 0, 0, 0))
    monkeypatch.delenv("NLH_THREADS", raising=False)
    assert cli.main(["verify", "--suite", "recovery"]) == 2
    out = capsys.readouterr().out
    assert "FAIL recovery-circle (reference=[1, 0] exact=[1, 1]" in out
    assert "PASS recovery-interval" in out and "PASS recovery-sphere" in out


def test_verify_mv_fails_on_an_uncertain_nerve(monkeypatch, capsys):
    # The fallback prime finds one pivot fewer on every matrix and rational
    # elimination has no room: each nerve degree is uncertain, so the suite
    # fails its nerve checks (and the crosschecked rows) and exits 2.
    from nlhodge import cli, cohomology

    pivots = cohomology._pivot_columns

    def lose_one(matrix, prime, cleared=frozenset()):
        reduced = pivots(matrix, prime, cleared)
        if prime == cohomology.PRIME_FALLBACK and reduced:
            reduced.pop(max(reduced))
        return reduced

    monkeypatch.setattr(cohomology, "_pivot_columns", lose_one)
    monkeypatch.setattr(cohomology, "RATIONAL_RANK_CAP", 0)
    monkeypatch.delenv("NLH_THREADS", raising=False)
    assert cli.main(["verify", "--suite", "mv"]) == 2
    out = capsys.readouterr().out
    assert "FAIL cech-nerve-circle ((1, 1) uncertain)" in out
    assert "FAIL cech-nerve-interval ((1, 0) uncertain)" in out


def test_verify_all_runs_every_suite(tmp_path, monkeypatch, capsys):
    from nlhodge import cli

    monkeypatch.delenv("NLH_THREADS", raising=False)
    assert cli.main(["verify", "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "verify.json").read_text())
    names = [c["name"] for c in payload["checks"]]
    assert payload["suite"] == "all" and payload["failed"] == 0
    for name in ("multiplier-bound", "homotopy-identity-circle", "mv-exact-interval-p2",
                 "removability-alpha-1.5", "recovery-circle", "recovery-interval",
                 "recovery-sphere"):
        assert name in names
    assert (tmp_path / "removability.csv").exists()
    assert capsys.readouterr().out.count("PASS ") == len(names)


def test_verify_accepts_a_valid_file_space(tmp_path):
    dist_path, weights_path = write_file_space(tmp_path)
    proc = run_cli(
        "verify", "--suite", "identity", "--dist", dist_path, "--weights", weights_path
    )
    assert proc.returncode == 0, proc.stderr
    assert "file-space-valid" in proc.stdout


# --- exit discipline --------------------------------------------------------------


def test_usage_errors_exit_one():
    assert run_cli().returncode == 1  # no subcommand
    assert run_cli("betti", "--eps", "not-a-number").returncode == 1
    assert run_cli("betti", "--space", "klein-bottle").returncode == 1
    for system in ("rips", "hausdorff"):
        proc = run_cli("betti", "--system", system)
        assert (proc.returncode, proc.stderr) == (1, f"error: {system} system needs --eps\n")
    assert run_cli("frobnicate").returncode == 1


def test_bad_thread_cap_exits_one():
    proc = run_cli(
        "betti", "--space", "circle", "--n", "8", "--eps", "1.2",
        env_extra={"NLH_THREADS": "zzz"},
    )
    assert proc.returncode == 1
    assert "NLH_THREADS" in proc.stderr
    proc = run_cli(
        "betti", "--space", "circle", "--n", "8", "--eps", "1.2",
        env_extra={"NLH_THREADS": "0"},
    )
    assert proc.returncode == 1


def test_library_thread_cap_matches_the_cli(monkeypatch):
    from nlhodge import thread_cap

    texts = {
        "zzz": "NLH_THREADS must be a positive integer, got 'zzz'",
        "0": "NLH_THREADS must be >= 1, got 0",
    }
    for raw, text in texts.items():
        monkeypatch.setenv("NLH_THREADS", raw)
        with pytest.raises(ValueError) as exc:
            thread_cap()
        assert str(exc.value) == text
        proc = run_cli("verify", "--suite", "identity", env_extra={"NLH_THREADS": raw})
        assert (proc.returncode, proc.stderr) == (1, f"error: {text}\n")
    monkeypatch.setenv("NLH_THREADS", "3")
    assert thread_cap() == 3
    monkeypatch.delenv("NLH_THREADS")
    assert thread_cap() == len(os.sched_getaffinity(0))


def _wrong_exact_betti(monkeypatch):
    """Make exact_betti report b_0 one too high, against a spectral count that
    is unflagged, so the spectral count stands and the two disagree."""
    from dataclasses import replace

    from nlhodge import cohomology

    exact = cohomology.exact_betti

    def wrong(*args, **kwargs):
        rep = exact(*args, **kwargs)
        return replace(rep, betti=(rep.betti[0] + 1, *rep.betti[1:]))

    monkeypatch.setattr(cohomology, "exact_betti", wrong)
    monkeypatch.delenv("NLH_THREADS", raising=False)


def test_betti_disagreement_exits_two(monkeypatch, capsys):
    from nlhodge import cli

    _wrong_exact_betti(monkeypatch)
    rc = cli.main([
        "betti", "--space", "circle", "--n", "12", "--system", "rips",
        "--eps", "1.1", "--alpha", "0.5", "--pmax", "1",
    ])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out.splitlines() == ["p=0 betti=2 harmonic=1 dim=12", "p=1 betti=1 harmonic=1 dim=24"]
    assert err == "DISAGREEMENT between spectral and exact counts\n"


def test_betti_flagged_override_exits_two(monkeypatch, capsys, tmp_path):
    # A flagged count that the exact oracle contradicts used to be replaced by
    # the oracle, so the run passed. Now the raw count stands, the report
    # shows the override, and the disagreement exits 2.
    import numpy as np

    from nlhodge import cli, hodge

    _wrong_exact_betti(monkeypatch)
    monkeypatch.setattr(hodge, "GAP_AMBIGUITY_FACTOR", np.inf)  # every gap is ambiguous
    low = hodge._low_spectrum

    def positive(S):  # a harmonic eigenvalue of exactly 0 is never flagged
        eigs, bound = low(S)
        return np.maximum(eigs, 1e-300), bound

    monkeypatch.setattr(hodge, "_low_spectrum", positive)
    rc = cli.main([
        "betti", "--space", "circle", "--n", "12", "--system", "rips",
        "--eps", "1.1", "--alpha", "0.5", "--pmax", "1", "--out", str(tmp_path),
    ])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out.splitlines()[0] == "p=0 betti=2 harmonic=1 dim=12 flagged"
    assert err == "DISAGREEMENT between spectral and exact counts\n"
    report = json.loads((tmp_path / "hodge_report.json").read_text())
    degree0 = report["degrees"][0]
    assert degree0["flagged"] and degree0["oracle_used"]
    assert (degree0["harmonic_dim"], degree0["oracle_betti"]) == (1, 2)
    assert degree0["status"] == "disagree"
    degree1 = report["degrees"][1]  # flagged too, but the oracle agrees
    assert degree1["flagged"] and not degree1["oracle_used"] and degree1["status"] == "agree"
    assert report["agreement"]["status"] == ["disagree", "agree"]


def test_betti_uncertain_count_exits_two(monkeypatch, capsys):
    from nlhodge import cli, hodge

    def fail(S):
        raise hodge.NumericalError("eigsh Ritz pairs fail the guard")

    monkeypatch.setattr(hodge, "_low_spectrum", fail)
    monkeypatch.delenv("NLH_THREADS", raising=False)
    rc = cli.main([
        "betti", "--space", "circle", "--n", "12", "--system", "rips",
        "--eps", "1.1", "--alpha", "0.5", "--pmax", "0",
    ])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == "p=0 betti=1 harmonic=none dim=12 uncertain\n"
    assert err == "UNCERTAIN spectral or exact count\n"


def test_sweep_disagreement_exits_two(monkeypatch, capsys):
    from nlhodge import cli

    _wrong_exact_betti(monkeypatch)
    rc = cli.main([
        "sweep", "--space", "circle", "--n", "10", "--system", "rips",
        "--eps-grid", "0.8,1.2", "--alpha-grid", "0.5,1.5", "--pmax", "1",
    ])
    assert rc == 2
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(rows) == 4 and all(row[2:4] == ["2", "1"] for row in rows)


# --- the package's forwarded names ------------------------------------------------


def test_every_public_name_resolves():
    # every name in __all__ but the two defined in the package is forwarded,
    # and __getattr__ finds it in the submodule that _FORWARD names; the
    # names that moved to the test oracles are gone
    import nlhodge

    forwarded = [n for n in nlhodge.__all__ if n not in ("__version__", "thread_cap")]
    assert sorted(forwarded) == sorted(nlhodge._FORWARD)
    for name in forwarded:
        assert nlhodge.__getattr__(name).__name__ == name
    for name in ("cover_system", "capacity_of_hole", "PartitionOfUnity"):
        assert name not in nlhodge.__all__
        with pytest.raises(AttributeError):
            nlhodge.__getattr__(name)


def test_capacity_names_the_submodule():
    # nlhodge.capacity is the submodule once imported and nothing before: the
    # package forwards no name that a submodule also has (in a fresh
    # interpreter, where the submodule is not imported yet)
    code = (
        "import types, nlhodge\n"
        "try:\n    nlhodge.capacity\nexcept AttributeError:\n    pass\n"
        "else:\n    raise SystemExit('capacity is forwarded')\n"
        "from nlhodge import capacity\n"
        "assert isinstance(capacity, types.ModuleType) and nlhodge.capacity is capacity\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=REPO)
    assert proc.returncode == 0, proc.stderr


def test_missing_file_exits_one(tmp_path):
    proc = run_cli(
        "betti", "--space", "file", "--dist", str(tmp_path / "nope.csv"),
        "--system", "rips", "--eps", "0.5", "--alpha", "0.5",
    )
    assert proc.returncode == 1
    assert proc.stderr.strip() != ""
