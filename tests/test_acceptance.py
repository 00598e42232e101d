"""Acceptance suite: one test per shipped criterion, one printed verdict line each.

Every criterion is checked at its pinned tolerance and (where stated) runtime
budget.  The verdict lines are printed outside pytest capture so a plain
``pytest`` run shows:

    [PASS] criterion 01: isotypical projector algebra (...)

Failures still fail the test; the line is a summary, not a substitute.
"""
import itertools
import time
from pathlib import Path

import numpy as np

from equifred import (
    all_subgroups,
    alpha_elliptic_check,
    analytic_bvp_spectrum,
    build_fixed_point_degenerate_operator,
    build_invariant_circle_operator,
    build_X,
    character,
    character_rep,
    characters_of_subgroup,
    commutant_factors,
    convergence_order,
    decompose,
    diagonal_rep,
    double_interval_bvp,
    dual_characters,
    fiber_rep,
    fredholm_proxy_sweep,
    frobenius_hom_map,
    induce,
    intertwiner_basis,
    isotypical_basis,
    isotypical_projector,
    ker_im_pi_alpha,
    make_group,
    minimal_isotropy,
    mixed_bvp_spectrum,
    numerical_rank,
    orbits,
    partition_by_beta,
    pointwise_invertible,
    random_bundle,
    random_rep,
    random_symbol,
    restrict_character,
    restrict_rep,
    trivial_subgroup,
)
from equifred.cli import main as cli_main
from helpers import abelian_orders

DATA = Path(__file__).parent / "data"


def _line(capsys, num, label, ok, detail):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] criterion {num:02d}: {label} ({detail})")


def _criterion(capsys, num, label, body, *, limit=None):
    t0 = time.perf_counter()
    try:
        failures, detail = body()
    except Exception as exc:
        _line(capsys, num, label, False, f"raised {type(exc).__name__}: {exc}")
        raise
    elapsed = time.perf_counter() - t0
    timed_out = limit is not None and elapsed >= limit
    ok = not failures and not timed_out
    stamp = f"{detail}, {elapsed:.1f}s"
    if timed_out:
        stamp += f" over the {limit:.0f}s budget"
    _line(capsys, num, label, ok, stamp)
    assert not failures, failures[:5]
    if limit is not None:
        assert elapsed < limit, f"runtime {elapsed:.1f}s exceeds {limit:.0f}s"


# ---------------------------------------------------------------------------
# 1. projector algebra on random unitary representations


def test_criterion_01_projector_algebra(capsys):
    def body():
        rng = np.random.default_rng(101)
        classes = abelian_orders(8)
        failures = []
        worst = 0.0
        for case in range(200):
            group = make_group(classes[case % len(classes)])
            dim = int(rng.integers(1, 9))
            rep = random_rep(group, dim, rng)
            projs = [isotypical_projector(rep, chi) for chi in dual_characters(group)]
            defect = 0.0
            for p in projs:
                defect = max(
                    defect,
                    float(np.linalg.norm(p @ p - p, 2)),
                    float(np.linalg.norm(p - p.conj().T, 2)),
                )
            for pa, pb in itertools.combinations(projs, 2):
                defect = max(defect, float(np.linalg.norm(pa @ pb, 2)))
            defect = max(defect, float(np.linalg.norm(sum(projs) - np.eye(dim), 2)))
            worst = max(worst, defect)
            if defect > 1e-10:
                failures.append(f"case {case}: projector defect {defect:.3e} > 1e-10")
        return failures, f"200 cases, worst defect {worst:.1e}"

    _criterion(capsys, 1, "isotypical projector algebra", body, limit=10.0)


# ---------------------------------------------------------------------------
# 2. induced characters decompose with 0/1 multiplicities, exhaustively


def test_criterion_02_induced_multiplicity_law(capsys):
    def body():
        failures = []
        triples = 0
        for orders in abelian_orders(12):
            group = make_group(orders)
            dual = dual_characters(group)
            for sub in all_subgroups(group):
                for chi_v in characters_of_subgroup(group, sub):
                    induced = induce(character_rep(chi_v), group)
                    got = {chi: m for chi, m in decompose(induced).entries}
                    for chi in dual:
                        expect = 1 if restrict_character(chi, sub) == chi_v else 0
                        if got.get(chi, 0) != expect:
                            failures.append(
                                f"{orders}, H={sub.elements}, chi_V={chi_v.representative.exponents}: "
                                f"mult of {chi.exponents} is {got.get(chi, 0)}, expected {expect}"
                            )
                    triples += 1
        return failures, f"{triples} (group, subgroup, character) triples, all multiplicities 0/1 exact"

    _criterion(capsys, 2, "induced character multiplicity law", body, limit=30.0)


# ---------------------------------------------------------------------------
# 3. the induction adjunction: equal hom dimensions and an injective map


def test_criterion_03_induction_adjunction(capsys):
    def body():
        rng = np.random.default_rng(303)
        classes = abelian_orders(8)
        failures = []
        nonvacuous = 0
        for case in range(100):
            group = make_group(classes[int(rng.integers(0, len(classes)))])
            subs = all_subgroups(group)
            sub = subs[int(rng.integers(0, len(subs)))]
            big = random_rep(group, int(rng.integers(1, 5)), rng)
            small = random_rep(sub, int(rng.integers(1, 5)), rng)
            down = intertwiner_basis(restrict_rep(big, sub), small)
            up = intertwiner_basis(big, induce(small, group))
            if len(down) != len(up):
                failures.append(
                    f"case {case}: hom dims differ, {len(down)} restricted vs {len(up)} induced"
                )
                continue
            if down:
                nonvacuous += 1
                images = [frobenius_hom_map(f, big, small) for f in down]
                stacked = np.array([im.reshape(-1) for im in images])
                rank = numerical_rank(stacked)
                if rank != len(down):
                    failures.append(
                        f"case {case}: basis of {len(down)} maps to rank {rank} set"
                    )
        if nonvacuous < 25:
            failures.append(f"only {nonvacuous} instances had nonzero hom spaces")
        return failures, f"100 instances, {nonvacuous} with nonzero hom spaces"

    _criterion(capsys, 3, "induction adjunction dimensions and injectivity", body)


# ---------------------------------------------------------------------------
# 4. kernel/image factor split of the isotypical compression


def test_criterion_04_factor_split_oracle(capsys):
    def body():
        failures = []
        singles = {}  # (group orders, subgroup, isotype, alpha) -> (library survives, brute rank)
        pool = []

        for orders in abelian_orders(8):
            group = make_group(orders)
            dual = dual_characters(group)
            for sub in all_subgroups(group):
                isotypes = characters_of_subgroup(group, sub)
                for rho in isotypes:
                    single = character_rep(rho)
                    induced = induce(single, group)
                    for alpha in dual:
                        split = ker_im_pi_alpha(sub, group, single, alpha)
                        rank01 = isotypical_basis(induced, alpha).shape[1]
                        if rank01 not in (0, 1):
                            failures.append(
                                f"{orders}: isotype multiplicity {rank01} in the induction"
                            )
                        singles[(id(sub), rho, alpha)] = (bool(split.im_indices), rank01)
                # every assembled fiber type: <= 3 isotypes, multiplicities <= 2
                for k in (1, 2, 3):
                    for combo in itertools.combinations(isotypes, k):
                        for mults in itertools.product((1, 2), repeat=k):
                            pool.append((group, sub, combo, mults))

        tuples = 0
        for group, sub, combo, mults in pool:
            for alpha in dual_characters(group):
                tuples += 1
                total = sum(m * m for m in mults)
                predicted = 0
                brute = 0
                for rho, m in zip(combo, mults):
                    survives, rank01 = singles[(id(sub), rho, alpha)]
                    predicted += m * m if survives else 0
                    brute += m * m * rank01
                if predicted != brute:
                    failures.append(
                        f"{group.orders}, H={sub.elements}, beta={mults}, alpha={alpha.exponents}: "
                        f"predicted image dim {predicted} (kernel {total - predicted}), "
                        f"brute force {brute} (kernel {total - brute})"
                    )

        # object-level spot check: compress an independently solved commutant
        # basis and rank the result, against the library's factor split
        rng = np.random.default_rng(404)
        multi = [entry for entry in pool if len(entry[2]) >= 2]
        spot = 0
        for i in rng.choice(len(multi), size=100, replace=False):
            group, sub, combo, mults = multi[int(i)]
            alpha = dual_characters(group)[int(rng.integers(0, group.order))]
            chars = [rho for rho, m in zip(combo, mults) for _ in range(m)]
            beta = diagonal_rep(sub, chars)
            split = ker_im_pi_alpha(sub, group, beta, alpha)
            predicted = sum(split.factors[j][1] ** 2 for j in split.im_indices)
            induced = induce(beta, group)
            basis_a = isotypical_basis(induced, alpha)
            comm = intertwiner_basis(beta, beta)
            eye = np.eye(group.order // sub.order)
            rows = [
                (basis_a.conj().T @ np.kron(eye, t) @ basis_a).reshape(-1)
                for t in comm
            ]
            observed = numerical_rank(np.array(rows))
            if observed != predicted:
                failures.append(
                    f"{group.orders}, beta={mults}, alpha={alpha.exponents}: "
                    f"commutant compression has rank {observed}, split predicts {predicted}"
                )
            spot += 1
        return failures, f"{tuples} tuples exact, {spot} object-level spot checks"

    _criterion(capsys, 4, "kernel/image factor split oracle", body, limit=60.0)


# ---------------------------------------------------------------------------
# 5. orbit/isotype enumeration against the commutant factor counts


def test_criterion_05_enumeration_counts(capsys):
    def body():
        rng = np.random.default_rng(505)
        classes = abelian_orders(8)
        failures = []
        done = 0
        while done < 50:
            group = make_group(classes[int(rng.integers(0, len(classes)))])
            bundle = random_bundle(
                group, rng, n_orbits=int(rng.integers(1, 4)), max_fiber_dim=4
            )
            if len(bundle.points) > 12:
                continue
            x = build_X(bundle)
            counted = sum(
                len(commutant_factors(fiber_rep(bundle, orbit[0])))
                for orbit in orbits(bundle)
            )
            if len(x) != counted:
                failures.append(
                    f"bundle {done}: |X/Gamma| = {len(x)} but factor counts sum to {counted}"
                )
            parts = partition_by_beta(x, minimal_isotropy(bundle))
            seen = []
            for part in parts.values():
                if not part:
                    failures.append(f"bundle {done}: empty partition part")
                seen.extend(id(orbit) for orbit in part)
            if sorted(seen) != sorted(id(orbit) for orbit in x):
                failures.append(f"bundle {done}: partition is not disjoint-exhaustive")
            done += 1
        return failures, "50 random bundles, counts exact, partitions disjoint and exhaustive"

    _criterion(capsys, 5, "orbit/isotype enumeration", body)


# ---------------------------------------------------------------------------
# 6. the elliptic family stays stable under refinement for both isotypes


def test_criterion_06_elliptic_family_stable(capsys):
    def body():
        failures = []
        family = lambda n: build_invariant_circle_operator(
            n, 2, "shifted_laplacian", action="reflection"
        )
        group = make_group([2])
        spreads = []
        for exps in ((0,), (1,)):
            sweep = fredholm_proxy_sweep(family, character(group, exps), (32, 64, 128), k=4)
            spread = (max(sweep.values) - min(sweep.values)) / max(sweep.values)
            spreads.append(spread)
            if sweep.verdict != "stable":
                failures.append(f"alpha={exps}: verdict {sweep.verdict!r}, wanted stable")
            if spread >= 0.10:
                failures.append(f"alpha={exps}: values vary by {spread:.1%} >= 10%")
        return failures, (
            f"both isotypes stable, spreads {spreads[0]:.1%} and {spreads[1]:.1%}"
        )

    _criterion(capsys, 6, "elliptic family sweep stays stable", body)


# ---------------------------------------------------------------------------
# 7. the partially elliptic family separates the two isotypes


def test_criterion_07_partial_ellipticity_separation(capsys):
    def body():
        failures = []
        group = make_group([2])
        sizes = (32, 64, 128)
        sign = fredholm_proxy_sweep(
            build_fixed_point_degenerate_operator, character(group, (1,)), sizes, k=4
        )
        triv = fredholm_proxy_sweep(
            build_fixed_point_degenerate_operator, character(group, (0,)), sizes, k=4
        )
        if sign.verdict != "stable":
            failures.append(f"sign isotype: verdict {sign.verdict!r}, wanted stable")
        if triv.verdict != "degenerating":
            failures.append(f"trivial isotype: verdict {triv.verdict!r}, wanted degenerating")
        fall = triv.values[0] / triv.values[-1] if triv.values[-1] else float("inf")
        if fall < 10.0:
            failures.append(f"trivial isotype fell only {fall:.1f}x, wanted >= 10x")
        return failures, f"sign stable, trivial falls {fall:.1f}x from n=32 to n=128"

    _criterion(capsys, 7, "partial ellipticity separates the isotypes", body)


# ---------------------------------------------------------------------------
# 8. free actions: every isotype verdict collapses to pointwise invertibility


def test_criterion_08_free_action_collapse(capsys):
    def body():
        rng = np.random.default_rng(808)
        classes = abelian_orders(8)
        failures = []
        for case in range(20):
            group = make_group(classes[int(rng.integers(0, len(classes)))])
            bundle = random_bundle(
                group, rng, n_orbits=int(rng.integers(1, 3)),
                max_fiber_dim=3, min_isotropy=trivial_subgroup(group),
            )
            if minimal_isotropy(bundle).order != 1:
                failures.append(f"case {case}: free orbit requested but isotropy is larger")
                continue
            if case % 2 == 0:
                sym = random_symbol(bundle, rng, shift=1.5)
            else:
                sym = random_symbol(bundle, rng, kill_isotype=True)
            invertible = pointwise_invertible(sym)
            if invertible != (case % 2 == 0):
                failures.append(f"case {case}: construction gave invertible={invertible}")
            for alpha in dual_characters(group):
                report = alpha_elliptic_check(sym, alpha)
                if report.verdict != invertible:
                    failures.append(
                        f"case {case}, alpha={alpha.exponents}: verdict {report.verdict} "
                        f"but pointwise invertibility is {invertible}"
                    )
        return failures, "20 free-orbit bundles, all isotype verdicts match invertibility"

    _criterion(capsys, 8, "free-action collapse", body)


# ---------------------------------------------------------------------------
# 9. interval spectra through the doubled circle


def test_criterion_09_interval_spectra(capsys):
    def body():
        failures = []
        orders = []
        pairs = (
            ("dirichlet", "neumann"),
            ("dirichlet", "dirichlet"),
            ("neumann", "neumann"),
        )
        for bc in pairs:
            exact = analytic_bvp_spectrum(bc, 5)
            eig = mixed_bvp_spectrum(double_interval_bvp(256, bc), 5)
            for k, (e, x) in enumerate(zip(eig, exact)):
                if x == 0.0:
                    if abs(e) > 1e-8:
                        failures.append(f"{bc} eigenvalue {k}: {e:.3e} not numerically zero")
                elif abs(e - x) / x > 0.01:
                    failures.append(
                        f"{bc} eigenvalue {k}: {e:.6f} vs analytic {x}, off by "
                        f"{abs(e - x) / x:.2%} > 1%"
                    )
            errs = [
                max(abs(e - x) for e, x in zip(
                    mixed_bvp_spectrum(double_interval_bvp(n, bc), 5), exact
                ))
                for n in (64, 128, 256)
            ]
            order = convergence_order((64, 128, 256), errs)
            orders.append(order)
            if not 1.7 <= order <= 2.3:
                failures.append(f"{bc}: convergence order {order:.3f} outside 2 +/- 0.3")
        return failures, (
            "3 boundary pairs within 1% at n=256, orders "
            + "/".join(f"{o:.2f}" for o in orders)
        )

    _criterion(capsys, 9, "interval spectra by doubling", body, limit=30.0)


# ---------------------------------------------------------------------------
# 10. repeated CLI runs are byte-identical


def test_criterion_10_deterministic_reports(tmp_path, capsys):
    def body():
        failures = []
        commands = [
            ["check", "--input", str(DATA / "bundle_fixed_points.json"), "--alpha", "0"],
            ["check", "--input", str(DATA / "bundle_fixed_points.json"), "--alpha", "1"],
            ["check", "--input", str(DATA / "bundle_free_orbit.json"), "--alpha", "0"],
            ["check", "--input", str(DATA / "bundle_two_fiber.json"), "--alpha", "1"],
            ["decompose", "--input", str(DATA / "rep_z3_regular.json")],
            ["induce", "--input", str(DATA / "induce_z4_sign.json")],
            ["prim", "--input", str(DATA / "bundle_fixed_points.json")],
            ["prim", "--input", str(DATA / "bundle_free_orbit.json")],
            ["sweep", "--family", "reflection_laplacian", "--alpha", "1", "--sizes", "16,32"],
            ["sweep", "--family", "zero", "--alpha", "0", "--sizes", "8,16"],
            ["bvp", "--bc", "dirichlet,neumann", "--sizes", "16,32", "--count", "3"],
        ]
        for i, argv in enumerate(commands):
            out1 = tmp_path / f"{i}_first.json"
            out2 = tmp_path / f"{i}_second.json"
            rc1 = cli_main(argv + ["--out", str(out1)])
            rc2 = cli_main(argv + ["--out", str(out2)])
            label = " ".join(argv[:2])
            if rc1 != rc2:
                failures.append(f"{label}: exit codes differ, {rc1} vs {rc2}")
            b1, b2 = out1.read_bytes(), out2.read_bytes()
            if not b1:
                failures.append(f"{label}: empty report")
            if b1 != b2:
                failures.append(f"{label}: reports differ between runs")
        return failures, f"{len(commands)} commands, reports byte-identical across runs"

    _criterion(capsys, 10, "deterministic reports", body)
