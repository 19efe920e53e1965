"""Workload definitions: the argv lists one benchmark pass feeds the CLI.

Every workload runs one ``specgap`` subcommand once for each case of
``catalog.catalog_grid()``.  The seed permutes the case order and, for
``sample``, becomes ``--seed``; the program only ever sees the argv.
"""

import random

WORKLOADS = {
    "eigen_catalog": "eigen",
    "bounds_catalog": "bounds",
    "sample_catalog": "sample",
}

# catalog keys -> CLI spellings
_FAMILY = {
    "exponential_power": "exp-power",
    "uniform_ball": "ball",
    "generalized_cauchy": "cauchy",
    "gaussian": "gaussian",
}
_WEIGHT = {
    "unit": "unit",
    "one_plus_r2": "one-plus-r2",
    "inv_one_plus_r2": "inv-one-plus-r2",
}


def case_argv(command, spec, seed=None):
    """argv for one CLI command on one catalog case."""
    argv = [command, "--family", _FAMILY[spec.family], "--n", str(spec.n),
            "--weight", _WEIGHT[spec.weight_choice]]
    if spec.family == "exponential_power":
        argv += ["--alpha", repr(spec.alpha)]
    if spec.family == "generalized_cauchy":
        argv += ["--beta", repr(spec.beta)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    return argv


def commands(workload, seed, grid):
    """[(spec, argv)] for one pass of ``workload``, in seeded order.

    ``grid`` is the catalog's case tuple; no case repeats within a pass.
    """
    command = WORKLOADS[workload]
    specs = list(grid)
    random.Random(seed).shuffle(specs)
    cmd_seed = seed if command == "sample" else None
    return [(spec, case_argv(command, spec, cmd_seed)) for spec in specs]
