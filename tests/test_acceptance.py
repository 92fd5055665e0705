"""Acceptance suite: the eight shipping gates for this package.

Each test prints one PASS or FAIL line on the live terminal so a teed
pytest log shows the verdicts at a glance. Numbers frozen here were
produced by independent oracle runs and must not drift.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import ptc_lab as pl
from ptc_lab.cli import main
from ptc_lab.combinatorics import stirling_second_explicit


@contextmanager
def _criterion(capsys, number, label):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {number}: FAIL - {label}")
        raise
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        print(f"ACCEPTANCE {number}: PASS - {label} ({elapsed:.2f}s)")


def test_acceptance_1_alpha_bound_second_order(capsys):
    with _criterion(capsys, 1, "second-order Lyapunov pair and rate bound"):
        start = time.perf_counter()
        lyap = pl.solve_lyapunov((-1.0, -2.0))
        assert np.max(np.abs(lyap.P - np.array([[3.0, 1.0], [1.0, 1.0]]))) <= 1e-10
        assert lyap.residual <= 1e-10
        sel = pl.select_alpha(lyap, 2, 10.0, phi=math.e, phi0=50.0)
        assert abs(sel.bound_attractive - 0.02145) <= 5e-4
        assert time.perf_counter() - start < 1.0


def test_acceptance_2_alpha_fourth_order(capsys):
    with _criterion(capsys, 2, "fourth-order auto-selected rate"):
        start = time.perf_counter()
        lyap = pl.solve_lyapunov((-1.0, -4.0, -6.0, -4.0))
        sel = pl.select_alpha(lyap, 4, 10.0, phi=1e-3, phi0=0.0)
        assert sel.mode == "stable"
        assert abs(sel.alpha - 1.6810e-5) <= 0.01 * 1.6810e-5
        assert time.perf_counter() - start < 1.0


def test_acceptance_3_gain_table_exact(capsys):
    with _criterion(capsys, 3, "fourth-order gain table, zero tolerance"):
        expected = (
            "p1 = c1/(alpha^4*(tau - t)^4)",
            "p2 = (c2/alpha^3 - c3/alpha^2 + c4/alpha + 1)/(tau - t)^3",
            "p3 = (c3/alpha^2 - 3*c4/alpha - 7)/(tau - t)^2",
            "p4 = (c4/alpha + 6)/(tau - t)",
        )
        assert pl.symbolic_rows(4) == expected
        assert main(["table", "4"]) == 0
        out = capsys.readouterr().out
        for row in expected:
            assert row in out
        # The integer skeleton behind the strings, compared exactly.
        rows = pl.structural_rows(4)
        skeleton = [
            (row.state, row.power, tuple((t.j, t.coefficient, t.alpha_power) for t in row.c_terms), row.constant)
            for row in rows
        ]
        assert skeleton == [
            (1, 4, ((1, 1, 4),), 0),
            (2, 3, ((2, 1, 3), (3, -1, 2), (4, 1, 1)), 1),
            (3, 2, ((3, 1, 2), (4, -3, 1)), -7),
            (4, 1, ((4, 1, 1),), 6),
        ]


def test_acceptance_4_second_order_sweep(capsys):
    with _criterion(capsys, 4, "second-order sweep certificates and endpoints"):
        plant = pl.builtin_plant("example2")
        for tau in (10.0, 15.0, 20.0):
            start = time.perf_counter()
            design = pl.design_controller(
                (-1.0, -2.0), tau, alpha=0.0214, phi=plant.phi, phi0=plant.phi0
            )
            cfg = pl.SimConfig(x0=(10.0, 10.0), dt_base=0.005)
            trace = pl.run(plant, design, cfg)
            cert = pl.certify(trace)
            assert cert.verdict == "triangularly_attractive"
            assert cert.varsigma is not None and math.isfinite(cert.varsigma)
            assert cert.t0 is not None and cert.t0 < tau
            assert trace.norms[-1] <= 0.5
            assert trace.times[-1] == pytest.approx(tau * (1.0 - 1e-3), abs=1e-9)
            assert time.perf_counter() - start < 10.0


def test_acceptance_5_fourth_order_run(capsys):
    with _criterion(capsys, 5, "fourth-order disturbed run certificate"):
        start = time.perf_counter()
        plant = pl.builtin_plant("example3", seed=6)
        design = pl.design_controller(
            (-1.0, -4.0, -6.0, -4.0), 10.0, phi=plant.phi, phi0=plant.phi0
        )
        cfg = pl.SimConfig(x0=(10.0, 10.0, 10.0, 10.0), dt_base=0.01, record_stride=50)
        trace = pl.run(plant, design, cfg)
        cert = pl.certify(trace)
        assert cert.verdict == "triangularly_stable"
        assert cert.sigma is not None and cert.sigma < 1e6
        assert trace.norms[-1] <= 1e-2
        assert time.perf_counter() - start < 10.0


def test_acceptance_6_first_order_closed_form(capsys):
    with _criterion(capsys, 6, "first-order closed form and step order"):
        plant = pl.plant_from_expressions(
            1, "0", "1", gamma=1.0, gamma_min=1.0, phi=0.0, phi0=0.0
        )
        # The unperturbed first-order loop follows
        # x(t) = x0 * (1 - t/tau)^(1/alpha) exactly.
        design = pl.design_controller((-1.0,), 10.0, alpha=0.05)
        cfg = pl.SimConfig(
            x0=(10.0,), dt_base=5e-3, epsilon_fraction=1e-3, shrink_divisor=2500.0
        )
        trace = pl.run(plant, design, cfg)
        exact = 10.0 * np.power(1.0 - trace.times / 10.0, 1.0 / 0.05)
        rel = np.abs(trace.states[:, 0] - exact) / np.abs(exact)
        assert float(rel.max()) < 1e-6

        coarse_design = pl.design_controller(
            (-1.0,), 10.0, alpha=0.09, eps_guard_fraction=0.2
        )
        errors = []
        for dt in (0.1, 0.05, 0.025):
            coarse_cfg = pl.SimConfig(
                x0=(10.0,), dt_base=dt, epsilon_fraction=0.2, shrink_divisor=10.0
            )
            coarse = pl.run(plant, coarse_design, coarse_cfg)
            t_end = coarse.times[-1]
            ref = 10.0 * (1.0 - t_end / 10.0) ** (1.0 / 0.09)
            errors.append(abs(coarse.states[-1, 0] - ref))
        ratios = [errors[i] / errors[i + 1] for i in range(2)]
        # Fourth-order stepping cuts the error by about 16x per halving.
        assert all(12.0 <= r <= 26.0 for r in ratios), ratios


def test_acceptance_7_property_suites(capsys):
    with _criterion(capsys, 7, "five randomized property suites, 1000 cases each"):
        total_start = time.perf_counter()
        rng = np.random.Generator(np.random.PCG64(2026))

        for _ in range(1000):
            n = int(rng.integers(1, 8))
            a = rng.normal(size=(n, n))
            b = rng.normal(size=(n, n))
            lhs = np.linalg.norm(a * b, 2)
            rhs = np.linalg.norm(a, 2) * np.linalg.norm(b, 2)
            assert lhs <= rhs * (1 + 1e-12)

        for _ in range(1000):
            n = int(rng.integers(1, 9))
            alpha = float(np.exp(rng.uniform(np.log(0.01), np.log(2.0))))
            tau = float(rng.uniform(1.0, 20.0))
            t = float(rng.uniform(0.0, 0.9 * tau))
            mats = pl.build_transform_matrices(n, alpha, tau, t)
            root_n = math.sqrt(n)
            assert np.linalg.norm(mats.s, 2) <= root_n * math.factorial(n - 1) + 1e-9
            assert np.linalg.norm(mats.S, 2) <= root_n * pl.bell_number(n - 1) + 1e-9
            geo = sum(alpha ** i for i in range(n))
            assert np.linalg.norm(mats.A, 2) <= root_n * geo + 1e-9

        for _ in range(1000):
            n = int(rng.integers(0, 13))
            k = int(rng.integers(0, 13))
            assert stirling_second_explicit(n, k) == pl.stirling_second(n, k)

        for _ in range(1000):
            n = int(rng.integers(1, 7))
            alpha = float(rng.uniform(0.01, 0.3))
            tau = float(rng.uniform(1.0, 20.0))
            t = float(rng.uniform(0.0, 0.7 * tau))
            mats = pl.build_transform_matrices(n, alpha, tau, t)
            fwd = mats.forward_map()
            inv = mats.inverse_map()
            eye = np.eye(n)
            assert np.max(np.abs(fwd @ inv - eye)) <= 1e-10
            assert np.max(np.abs(inv @ fwd - eye)) <= 1e-10

        for _ in range(1000):
            n = int(rng.integers(1, 7))
            poles = []
            while len(poles) < n:
                if n - len(poles) >= 2 and rng.random() < 0.5:
                    re = float(rng.uniform(-3.0, -0.2))
                    im = float(rng.uniform(0.1, 2.0))
                    poles += [complex(re, im), complex(re, -im)]
                else:
                    poles.append(complex(float(rng.uniform(-3.0, -0.2)), 0.0))
            a = np.poly(np.array(poles))
            c = tuple((-a[1:][::-1]).real)
            lyap = pl.solve_lyapunov(c)
            assert lyap.residual <= 1e-10

        assert time.perf_counter() - total_start < 30.0


def test_acceptance_8_negative_controls(capsys, tmp_path):
    with _criterion(capsys, 8, "non-Hurwitz and over-bound designs rejected"):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "plant": {"builtin": "example2"},
            "controller": {"c": [1, 1], "tau": 10},
            "sim": {"x0": [10, 10]},
            "output": {"directory": str(tmp_path / "out"), "stem": "bad"},
        }))
        assert main(["design", "--scenario", str(bad)]) == 2

        hot = tmp_path / "hot.json"
        hot.write_text(json.dumps({
            "plant": {"builtin": "example2"},
            "controller": {"c": [-1, -2], "tau": 10, "alpha": 0.05},
            "sim": {"x0": [10, 10]},
            "output": {"directory": str(tmp_path / "out"), "stem": "hot"},
        }))
        assert main(["design", "--scenario", str(hot)]) == 2
        capsys.readouterr()

        with pytest.raises(pl.InfeasibleDesignError):
            pl.design_controller((-1.0, -2.0), 10.0, alpha=0.05, phi0=50.0)
        with pytest.raises(pl.InfeasibleDesignError):
            pl.design_controller((1.0, 1.0), 10.0)
