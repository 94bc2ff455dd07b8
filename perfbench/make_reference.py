"""Regenerate the committed references in ``reference/``.

    python3 perfbench/make_reference.py [workload ...]

Each workload runs at the default seed twice: at the default tolerances
(the reference) and with ``tol_am`` a hundred times tighter.  The tighter
run's deviation from the reference estimates how far a run at the default
tolerances sits from the exact AM fixed point, so another correct solver
at the same tolerances may land up to about twice as far away.  The
tolerance is ``FACTOR`` times that gap, but never below ``FLOOR``: the
damage solve resolves its solution only to ``tol_newton`` (1e-8, relative),
so closer agreement cannot be asked of another solver.  A run that ends
on another AM branch moves the reaction or load-power curve by far more
than that and fails.
"""

import dataclasses
import json
import sys

from prepare import prepare

TIGHTEN = 100.0
FACTOR = 10.0
FLOOR = {"steps": 0, "energy": 1e-8, "curve": 1e-8}


def main(names) -> int:
    prepare()
    import checks
    import workloads

    for name in names or workloads.NAMES:
        spec = workloads.spec(name)
        problem = workloads.build(spec)
        ref_trace = workloads.run(problem)
        ref = checks.summary(ref_trace)
        problem.params.tol_am /= TIGHTEN
        gap = checks.deviation(workloads.run(problem), ref)
        tol = {k: max(FACTOR * v, FLOOR[k]) for k, v in gap.items()}
        tol["steps"] = int(tol["steps"])
        out = {"workload": name, "inputs": dataclasses.asdict(spec),
               "derivation": {"tol_am": problem.params.tol_am * TIGHTEN,
                              "tight_tol_am": problem.params.tol_am,
                              "gap": gap, "factor": FACTOR, "floor": FLOOR},
               "tolerance": tol, "summary": ref}
        checks.REFERENCE_DIR.mkdir(exist_ok=True)
        with open(checks.REFERENCE_DIR / f"{name}.json", "w") as f:
            json.dump(out, f, indent=1)
            f.write("\n")
        print(f"{name}: gap {gap} -> tolerance {tol}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
