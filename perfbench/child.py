"""The fresh interpreter each benchmark operation runs in.

    child.py setup <workload> <seed>          import and load inputs only
    child.py cli <trace.json> <zeropack args>  the CLI under the tracer
    child.py study <seed> [<trace.json>]       the design study

``run.py`` starts these with ``PYTHONPATH`` pointing at the checkout's
``src``. A trace file receives the import time and the per-layer metrics.
"""

from __future__ import annotations

import json
import random
import sys
import time
from dataclasses import replace

import checks
from tracer import Tracer

REFERENCE = "recipes/reference.recipe"
SWEEP_VALUES = "1.5um,1.875um,2.5um"
CAP_MATERIALS = ("sio2_sputter", "nitride_pecvd", "polysi_lpcvd")
N_CAVITIES = 8
SAFETY_FACTOR = 2.0
# every material's closed-form minimum cap must lie between MIN_REQUIRED
# (so the 10 nm lattice moves utilisation by at most 2 %) and this share
# of the thickest cap searched, so the answer sits well inside the search
# bracket and DesignError is never an expected outcome
MIN_REQUIRED = 1.5e-6
MAX_REQUIRED_SHARE = 0.8
PERTURBATION = 0.05


def _material_record(m):
    return {
        "youngs_modulus": m.youngs_modulus,
        "poisson_ratio": m.poisson_ratio,
        "failure_stress": m.failure_stress,
    }


def draw_cavities(rng: random.Random, materials: dict) -> list[dict]:
    """Distinct cavities whose closed-form minimum cap is comfortably
    feasible for every cap material. Distinct sides give every cavity its
    own cold plate solves, so the work does not depend on the seed."""
    cavities = []
    while len(cavities) < N_CAVITIES:
        side_a = rng.randint(30, 60) * 1e-6
        side_b = rng.choice(sorted(checks.CLAMPED_PLATE)) * side_a
        cavity = {
            "side_a": side_a,
            "side_b": side_b,
            "pressure": rng.randint(20, 100) * 1e5,
            "max_deflection": rng.randint(50, 500) * 1e-10,
            "safety_factor": SAFETY_FACTOR,
            # thin-plate theory holds up to a fifth of the span
            "thickness_max": min(side_a, side_b) / 5.0,
        }
        required = [
            checks.required_thickness(cavity, materials[name]) for name in CAP_MATERIALS
        ]
        sides = (side_a, side_b)
        if (
            min(required) >= MIN_REQUIRED
            and max(required) <= MAX_REQUIRED_SHARE * cavity["thickness_max"]
            and all(sides != (c["side_a"], c["side_b"]) for c in cavities)
        ):
            cavities.append(cavity)
    return cavities


def setup_study(seed: int):
    import zeropack.recipe
    import zeropack.release

    recipe = zeropack.recipe.load_recipe(REFERENCE)
    materials = {name: _material_record(recipe.materials[name]) for name in CAP_MATERIALS}
    rng = random.Random(seed)
    cavities = draw_cavities(rng, materials)
    observations = zeropack.release.bundled_observations()
    perturbed = [
        replace(o, underetch=o.underetch * (1.0 + rng.uniform(-PERTURBATION, PERTURBATION)))
        for o in observations
    ]
    return recipe, materials, cavities, observations, perturbed


def _attempt(fn, *args, **kwargs):
    """Run one design or calibration call; a failure becomes its message,
    so one failed call counts once and the study goes on."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - every failure is reported
        return f"{type(exc).__name__}: {exc}"


def run_study(recipe, materials, cavities, observations, perturbed) -> dict:
    import zeropack.design as design
    import zeropack.release as release

    min_caps, equivalents = [], []
    for cavity in cavities:
        constraints = design.DesignConstraints(
            pressure=cavity["pressure"],
            side_a=cavity["side_a"],
            side_b=cavity["side_b"],
            max_deflection=cavity["max_deflection"],
            safety_factor=cavity["safety_factor"],
            thickness_max=cavity["thickness_max"],
        )
        caps = {
            name: _attempt(design.min_cap_thickness, recipe.materials[name], constraints)
            for name in CAP_MATERIALS
        }
        min_caps.append(caps)
        src, dst = CAP_MATERIALS[0], CAP_MATERIALS[1]
        from_t = caps[src]
        equivalents.append(
            {
                "from": src,
                "to": dst,
                "from_thickness": from_t,
                "thickness": from_t if isinstance(from_t, str) else _attempt(
                    design.equivalent_thickness,
                    recipe.materials[src],
                    from_t,
                    recipe.materials[dst],
                    constraints,
                ),
            }
        )

    def fit(data, left_out):
        result = _attempt(release.calibrate_etch, data)
        params = result if isinstance(result, str) else [
            result.params.intrinsic_rate,
            result.params.aperture_factor,
            result.params.channel_factor,
        ]
        return {"left_out": left_out, "params": params}

    fits = [fit(observations, None)]
    for i in range(len(perturbed)):
        fits.append(fit(perturbed[:i] + perturbed[i + 1:], i))
    d = release.DEFAULT_ETCH_PARAMS
    return {
        "cavities": cavities,
        "materials": materials,
        "min_caps": min_caps,
        "equivalents": equivalents,
        "fits": fits,
        "default_etch": [d.intrinsic_rate, d.aperture_factor, d.channel_factor],
    }


def _import_zeropack() -> float:
    start = time.perf_counter()
    import zeropack.cli  # noqa: F401

    return time.perf_counter() - start


def _write_trace(path: str, import_s: float, tracer: Tracer) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"cli.import_s": import_s, **tracer.metrics()}, fh)


def main(argv: list[str]) -> int:
    command, rest = argv[0], argv[1:]
    if command == "setup":
        workload, seed = rest[0], int(rest[1])
        _import_zeropack()
        if workload == "design_study":
            setup_study(seed)
        else:
            import zeropack.cli as cli

            cli.load_recipe(REFERENCE)
            if workload == "seal_sweep":
                for value in SWEEP_VALUES.split(","):
                    cli.parse_quantity(value, cli.param_kind("stack.clog_deposition"), value)
        return 0
    if command == "cli":
        trace_path, args = rest[0], rest[1:]
        import_s = _import_zeropack()
        import zeropack.cli

        tracer = Tracer()
        tracer.install()
        try:
            return zeropack.cli.main(args)
        finally:
            sys.stdout.flush()
            _write_trace(trace_path, import_s, tracer)
    if command == "study":
        seed = int(rest[0])
        trace_path = rest[1] if len(rest) > 1 else None
        import_s = _import_zeropack()
        tracer = Tracer()
        if trace_path:
            tracer.install()
        inputs = setup_study(seed)
        start = time.perf_counter()
        result = run_study(*inputs)
        result["study_s"] = time.perf_counter() - start
        json.dump(result, sys.stdout)
        if trace_path:
            _write_trace(trace_path, import_s, tracer)
        return 0
    raise SystemExit(f"unknown command {command!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
