"""Check that every oracle of the benchmark rejects a corrupted result.

Run from the root of a checkout:

    python3 bench/selftest.py

For each workload one real op is run and must pass its oracle; then
copies of its result are corrupted one way at a time and each copy must
be rejected.  Exits 1 when a real result is rejected or a corrupted one
passes.  Takes about a minute, most of it one hyperbolic check and three clouds.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import run as bench

os.environ.update({var: "1" for var in bench.THREAD_VARS})
bench.load_package()

import numpy as np  # noqa: E402

import cli_cold  # noqa: E402
import oracles as O  # noqa: E402
import workloads  # noqa: E402

misses: list[str] = []


def expect(name: str, check, result, passes: bool) -> None:
    try:
        check(result)
        ok = passes
        why = "accepted"
    except O.OracleError as exc:
        ok = not passes
        why = f"rejected ({exc})"
    print(f"{'ok  ' if ok else 'MISS'} {name}: {why}"[:200])
    if not ok:
        misses.append(name)


def replace_component(report, index: int, **changes):
    comps = list(report.components)
    comps[index] = dataclasses.replace(comps[index], **changes)
    return dataclasses.replace(report, components=tuple(comps))


def fiber(wl, case, tag: str) -> None:
    rng = np.random.default_rng(0)
    report = wl.run(case)
    check = lambda r: wl.check(case, r, rng)
    R = dataclasses.replace
    expect(f"{tag} real report", check, report, True)
    comp = report.components[0]
    expect(f"{tag} one count off", check,
           replace_component(report, 0, counts=(comp.counts[0] + 1,) + comp.counts[1:], constant=False), False)
    expect(f"{tag} whole component off by two", check,
           replace_component(report, 0, counts=tuple(n + 2 for n in comp.counts)), False)
    expect(f"{tag} constant flag on uneven counts", check,
           replace_component(report, 0, counts=(comp.counts[0] + 1,) + comp.counts[1:]), False)
    expect(f"{tag} seven probes", check,
           replace_component(report, 0, probes=comp.probes[:-1], counts=comp.counts[:-1]), False)
    expect(f"{tag} repeated probe", check,
           replace_component(report, 0, probes=comp.probes[:1] * len(comp.probes)), False)
    expect(f"{tag} component dropped", check, R(report, components=report.components[1:]), False)
    expect(f"{tag} consistent flipped", check, R(report, consistent=not report.consistent), False)
    expect(f"{tag} wrong kind", check, R(report, algebra_kind="Degenerate"), False)

    disc = np.asarray(report.discriminant_samples)
    cell = 2.0 * report.eta / report.target_res
    cls = workloads.structure.classify(case.alg)
    rays = O.model_discriminant_rays(wl.kind, cls.iso, case.u.as_tuple(), case.k)
    expect(f"{tag} discriminant skipped", check, R(report, discriminant_samples=np.empty((0, 2))), False)
    moved = disc.copy()
    i = len(moved) // 2  # pushed three cells across its ray (or off the origin)
    ray = rays[np.argmax(np.abs(rays @ moved[i]))] if len(rays) else np.array([0.0, 1.0])
    moved[i] += 3.0 * cell * np.array([ray[1], -ray[0]])
    expect(f"{tag} discriminant sample off the model", check, R(report, discriminant_samples=moved), False)
    if len(disc) > 1:  # curve-traced branches: thinned below raster density, one branch lost
        expect(f"{tag} discriminant thinned to a third", check, R(report, discriminant_samples=disc[::3]), False)
        off_first = np.linalg.norm(disc - np.maximum(disc @ rays[0], 0.0)[:, None] * rays[0], axis=1) > cell
        expect(f"{tag} discriminant branch lost", check, R(report, discriminant_samples=disc[off_first]), False)
    real = workloads.structure.classify

    def bent(alg, *args, **kwargs):
        cls = real(alg, *args, **kwargs)
        cls.iso = cls.iso @ np.array([[1.0, 1e-3], [0.0, 1.0]])
        return cls

    workloads.structure.classify = bent
    try:
        expect(f"{tag} bent isomorphism", check, report, False)
    finally:
        workloads.structure.classify = real


def fiber_2var() -> None:
    wl = workloads.Fiber2Var()
    cases = wl.make_cases(1)
    case = cases[0]
    rng = np.random.default_rng(0)
    cloud = wl.run(case)
    check = lambda c: wl.check(case, c, rng)
    expect("fiber-2var real cloud", check, cloud, True)
    moved = cloud.points.copy()
    moved[7, 0] += 1e-7
    expect("fiber-2var point off the fiber", check, dataclasses.replace(cloud, points=moved), False)
    outside = cloud.points.copy()
    outside[3] *= 2.0 / np.linalg.norm(outside[3])
    expect("fiber-2var point outside the ball", check, dataclasses.replace(cloud, points=outside), False)
    expect("fiber-2var connectivity", check, dataclasses.replace(cloud, connectivity=2), False)
    expect("fiber-2var off target flagged on", check, dataclasses.replace(cloud, on_discriminant=True), False)
    for on in (c for c in cases if c.on_discriminant):
        cloud = wl.run(on)
        check = lambda c, on=on: wl.check(on, c, rng)
        expect(f"fiber-2var real cloud ({on.label})", check, cloud, True)
        expect(f"fiber-2var on target flagged off ({on.label})", check,
               dataclasses.replace(cloud, on_discriminant=False), False)


def sweep() -> None:
    wl = workloads.Sweep()
    rng = np.random.default_rng(0)
    cases = wl.make_cases(1)
    for case in cases[:4]:
        expect(f"sweep real result ({case.kind})", lambda r: wl.check(case, r, rng), wl.run(case), True)
    case = cases[0]  # the complex params, where the exponent band applies
    res = wl.run(case)
    check = lambda r: wl.check(case, r, rng)
    R = dataclasses.replace
    products = res.products.copy()
    products[5, 2, 0] += 1e-9
    loja = res.loja
    cases_bad = {
        "invalid report": R(res, report=dataclasses.replace(res.report, valid=False)),
        "product off": R(res, products=products),
        "norm off": R(res, norms=res.norms * [1.0, 1.0, 1.01]),
        "fit not exact": R(res, fit=R(res.fit, status="Infeasible")),
        "fit derivative off": R(res, fit=R(res.fit, derivative=res.fit.derivative * 1.001)),
        "quad T off": R(res, quad=R(res.quad, T=res.quad.T + 1e-6)),
        "theta outside band": R(res, loja=R(loja, theta_hat=loja.theta_hat + 0.2)),
        "c_hat off its bins": R(res, loja=R(loja, c_hat=loja.c_hat * 1.01)),
    }
    deriv = res.deriv
    bumped = dict(deriv.u.terms)
    key = next(iter(bumped))
    bumped[key] += 1e-6
    cases_bad["derivative off"] = R(res, deriv=type(deriv)(deriv.nvars, type(deriv.u)(deriv.u.nvars, bumped), deriv.v))
    gcr = res.gcr
    cases_bad["gcr residual"] = R(res, gcr=type(gcr)(gcr.res_u, gcr.res_v, 1e-6 * gcr.scale, gcr.scale))
    cls = res.cls
    cases_bad["wrong kind"] = R(res, cls=type(cls)(**{**vars(cls), "kind": type(cls.kind)("Hyperbolic")}))
    cases_bad["bent iso"] = R(res, cls=type(cls)(**{**vars(cls), "iso": cls.iso + 1e-4}))
    for name, bad in cases_bad.items():
        expect(f"sweep {name}", check, bad, False)


def cli() -> None:
    env = bench.child_env()
    bench.OUT.mkdir(exist_ok=True)
    wanted = ("mul", "classify", "fit-linear", "inv")
    seen = set()
    for case in cli_cold.make_cases(1):
        key = (case.cmd, case.code)
        if case.cmd not in wanted or case.code == 1 or key in seen:
            continue
        seen.add(key)
        run = cli_cold.run_child(cli_cold.command(case), case.doc, env, str(bench.ROOT), str(bench.OUT))
        check = lambda r, case=case: cli_cold.check(case, r)
        tag = f"cli {case.cmd} exit {case.code}"
        expect(f"{tag} real run", check, run, True)
        expect(f"{tag} wrong exit code", check, dataclasses.replace(run, code=case.code ^ 2), False)
        payload = json.loads(run.stdout)
        if "result" in payload:
            bad = dict(payload, result=[v * (1 + 1e-9) + 1e-9 for v in payload["result"]])
            expect(f"{tag} result off", check, dataclasses.replace(run, stdout=json.dumps(bad)), False)
        if "iso" in payload:
            bad = dict(payload, iso=(np.array(payload["iso"]) * [[1.0, 1.001], [1.0, 1.0]]).tolist())
            expect(f"{tag} bent iso", check, dataclasses.replace(run, stdout=json.dumps(bad)), False)
        if "derivative" in payload:
            bad = dict(payload, derivative=[v + 1e-6 for v in payload["derivative"]])
            expect(f"{tag} derivative off", check, dataclasses.replace(run, stdout=json.dumps(bad)), False)
        nan = json.dumps(dict(payload, extra=float("nan")))
        expect(f"{tag} NaN token", check, dataclasses.replace(run, stdout=nan), False)
    malformed = next(c for c in cli_cold.make_cases(1) if c.code == 1)
    run = cli_cold.run_child(cli_cold.command(malformed), malformed.doc, env, str(bench.ROOT), str(bench.OUT))
    check = lambda r: cli_cold.check(malformed, r)
    expect("cli malformed real run", check, run, True)
    expect("cli malformed with output", check, dataclasses.replace(run, stdout="{}"), False)
    mul = next(c for c in cli_cold.make_cases(1) if c.cmd == "mul" and c.code == 0)
    garbled = cli_cold.CliRun(0, '{"result": [1.0,', "", 0.0, 0)
    expect("cli truncated output", lambda r: cli_cold.check(mul, r), garbled, False)


def models() -> None:
    """The model fiber counts on the split-complex params, by hand."""
    iso = np.array([[1.0, 1.0], [1.0, -1.0]])
    u = (1.0, 0.0)
    for c, want in (((0.03, 0.01), 4), ((-0.03, 0.01), 0), ((0.01, 0.03), 0)):
        got = O.model_fiber_count("Hyperbolic", iso, u, 2, c, 1.0)
        expect(f"model count split x^2 = {c}", lambda g: O.check_counts(g[0], (want, 0), "model"), got, True)
    got = O.model_fiber_count("Field", np.eye(2), (1.0, 0.0), 3, (0.02, 0.01), 1.0)
    expect("model count complex x^3", lambda g: O.check_counts(g[0], (3, 0), "model"), got, True)


def main() -> int:
    models()
    sweep()
    field = workloads.FiberField()
    fiber(field, field.make_cases(1)[0], "fiber-field")
    hyper = workloads.FiberHyperbolic()
    fiber(hyper, hyper.make_cases(1)[0], "fiber-hyperbolic")
    fiber_2var()
    cli()
    print(f"{len(misses)} misses" + (": " + ", ".join(misses) if misses else ""))
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
