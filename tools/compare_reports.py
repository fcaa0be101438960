"""Print the verification reports of a fixed comparison set, one canonical JSON line per case.

Each line holds the case name, the ``verify`` exit code, what ``verify``
wrote to stderr (the ``config error:`` line, or empty) and the JSON reports
the case wrote, without ``runtime_ms``, the one field that is not
deterministic.  The cases cover the default suite over thirteen seeds, every
experiment at n = 2, 3 and 4, ``resolution`` at its n = 3 defaults (cutoff
16), at n = 5, n = 3 cutoff 18 and n = 4 cutoff 8 and with aliased rules
(at M = 1 every sector pair couples),
the deepest sectors of both number-operator sweeps (``resolution`` at n = 2
cutoffs 56 and 63, ``anticlique`` at n = 2 cutoff 56), the largest n = 2
``anticlique`` box (cutoff 89), an n = 2 ``anticlique`` with 64 generators,
``resolution``, ``projection`` and ``anticlique`` with a non-DFT ``phi`` at
n = 3 (the DFT ``phi``'s conjugate is itself with its modes permuted, so only
such a ``phi`` shows a conjugated displacement phase), ``anticlique`` at
n = 3 cutoff 12 and n = 2 cutoff 20, where two rows of a ladder GEMM fit
``SERIAL_GEMM_MACS`` and eight do not,
``projection`` with large grades (n = 3 cutoff 16, n = 2 cutoff 40, n = 4
cutoff 8), at n = 5 (cutoff 5), with trusted boxes past ``cutoff // n``
and where its quadrature comparison decides a FAIL (aliased rules at n = 2
and at n = 3 on the whole box, and n = 2 cutoff 40 on the whole box),
``projection`` at n = 2 cutoff 89 on the whole box, whose totals reach 178,
past 170, the last k whose k! is a double,
the n = 4, 5 and 6 defaults (cutoff 16) of ``projection``, ``resolution``
and ``anticlique``, which the dimension guard rejects (exit 2), an n = 3
``anticlique`` point so far out that its ladder underflows (exit 2) and an
n = 3 generator at radius 1.66e13, where its Gaussian rounds to 0, one-mode
rules from exact to aliased and past the kernel's scaling range, ``gs`` at
its defaults for cutoffs 64 and 128 (where the default rule reaches
``MAX_RADIAL_ORDER``), and ``convergence`` with its ladder above ``cutoff``.
Two checkouts give byte-identical output exactly when every report and exit
code agrees:

    PYTHONPATH=<parent>/src python tools/compare_reports.py > parent.jsonl
    PYTHONPATH=<change>/src python tools/compare_reports.py > change.jsonl
    cmp parent.jsonl change.jsonl

The package is imported from ``PYTHONPATH``.  Run both sides with the same
``OPENBLAS_NUM_THREADS``: threaded products may round differently at
another thread count.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

from fockgraph import cli

# A fixed non-DFT 3-mode unitary: the real orthogonal (1/3)[[1, 2, 2], [2, 1, -2], [2, -2, 1]] with its
# columns turned by the phases 1, i and (3 + 4i)/5, as row-major [re, im] pairs.
FIXED_PHI = [
    [entry * phase.real / 3, entry * phase.imag / 3]
    for row in ((1, 2, 2), (2, 1, -2), (2, -2, 1))
    for entry, phase in zip(row, (1, 1j, 0.6 + 0.8j))
]

# (name, config) pairs: a config dict is run with --config, a list of strings is the argument list.
CASES = [
    *((f"suite seed {seed}", ["--seed", str(seed)]) for seed in (*range(12), 3243419750)),
    ("convergence", ["--experiment", "convergence"]),
    *(
        (f"anticlique n3 c8 seed {seed}", {"experiment": "anticlique", "n": 3, "cutoff": 8, "seed": seed})
        for seed in range(10)
    ),
    ("resolution n3 c6", {"experiment": "resolution", "n": 3, "cutoff": 6}),
    ("resolution n3 defaults", {"experiment": "resolution", "n": 3}),
    ("resolution n4 c4", {"experiment": "resolution", "n": 4, "cutoff": 4}),
    ("anticlique n4 c6", {"experiment": "anticlique", "n": 4, "cutoff": 6}),
    ("anticlique n3 c16", {"experiment": "anticlique", "n": 3, "cutoff": 16}),
    ("anticlique n2 c16 seed 3243419750", {"experiment": "anticlique", "n": 2, "cutoff": 16, "seed": 3243419750}),
    (
        "anticlique n3 c8 X 1e3",
        {"experiment": "anticlique", "n": 3, "cutoff": 8, "anticlique_params": {"X": [1e3, 0.0], "Gamma": [0.3, 0.3]}},
    ),
    (
        "anticlique n3 c8 generator at 0.999 of the radius limit",
        {
            "experiment": "anticlique",
            "n": 3,
            "cutoff": 8,
            # 0.999 of the radius limit the config once set at n=3 cutoff 8; the name stays, and with it the output.
            "generator_params": [{"R": [16592545771324.547, 0.0], "Theta": [0.3, 0.3]}],
        },
    ),
    ("projection n3 c6", {"experiment": "projection", "n": 3, "cutoff": 6}),
    ("projection n4 c4", {"experiment": "projection", "n": 4, "cutoff": 4}),
    ("projection n3 c16", {"experiment": "projection", "n": 3, "cutoff": 16}),
    ("projection n2 c40", {"experiment": "projection", "n": 2, "cutoff": 40}),
    ("projection n3 c6 fixed phi", {"experiment": "projection", "n": 3, "cutoff": 6, "phi": FIXED_PHI}),
    ("projection n2 c16 t9", {"experiment": "projection", "n": 2, "cutoff": 16, "trusted_block": 9}),
    ("projection n3 c8 t3", {"experiment": "projection", "n": 3, "cutoff": 8, "trusted_block": 3}),
    ("projection n4 c8", {"experiment": "projection", "n": 4, "cutoff": 8}),
    ("projection n5 c5", {"experiment": "projection", "n": 5, "cutoff": 5}),
    (
        "projection n2 c16 Q3 M5",
        {"experiment": "projection", "n": 2, "cutoff": 16, "radial_order": 3, "angular_order": 5},
    ),
    (
        "projection n3 c8 t8 Q2 M3",
        {"experiment": "projection", "n": 3, "cutoff": 8, "trusted_block": 8, "radial_order": 2, "angular_order": 3},
    ),
    ("projection n2 c40 t40", {"experiment": "projection", "n": 2, "cutoff": 40, "trusted_block": 40}),
    *(
        (f"{experiment} n{n} defaults", {"experiment": experiment, "n": n})
        for n in (4, 5, 6)
        for experiment in ("projection", "resolution", "anticlique")
    ),
    ("gs c40", {"experiment": "gs", "cutoff": 40}),
    ("gs c64", {"experiment": "gs", "cutoff": 64}),
    ("gs c128", {"experiment": "gs", "cutoff": 128}),
    ("gs c4 Q60 M10", {"experiment": "gs", "cutoff": 4, "radial_order": 60, "angular_order": 10}),
    ("gs c63 Q64", {"experiment": "gs", "cutoff": 63, "radial_order": 64}),
    ("gs c16 Q9 M7", {"experiment": "gs", "cutoff": 16, "radial_order": 9, "angular_order": 7}),
    (
        "gs c16 Q5 M34 t3",
        {"experiment": "gs", "cutoff": 16, "radial_order": 5, "angular_order": 34, "trusted_block": 3},
    ),
    ("covariant_gs c40", {"experiment": "covariant_gs", "cutoff": 40}),
    (
        "covariant_gs c100 Q17 t40",
        {"experiment": "covariant_gs", "cutoff": 100, "radial_order": 17, "trusted_block": 40},
    ),
    (
        "covariant_gs c300 Q17 t100",
        {"experiment": "covariant_gs", "cutoff": 300, "radial_order": 17, "trusted_block": 100},
    ),
    (
        "covariant_gs c260 Q64 M8",
        {"experiment": "covariant_gs", "cutoff": 260, "radial_order": 64, "angular_order": 8},
    ),
    (
        "covariant_gs c400 Q2 M4 t200",
        {"experiment": "covariant_gs", "cutoff": 400, "radial_order": 2, "angular_order": 4, "trusted_block": 200},
    ),
    ("convergence ladder 8-64", {"experiment": "convergence", "cutoff_ladder": [8, 16, 32, 64]}),
    ("convergence ladder [4, 12]", {"experiment": "convergence", "cutoff_ladder": [4, 12]}),
    ("convergence c4 ladder [16, 20]", {"experiment": "convergence", "cutoff": 4, "cutoff_ladder": [16, 20]}),
    ("resolution n2 c40", {"experiment": "resolution", "n": 2, "cutoff": 40}),
    ("resolution n2 c56", {"experiment": "resolution", "n": 2, "cutoff": 56}),
    ("resolution n2 c63", {"experiment": "resolution", "n": 2, "cutoff": 63}),
    ("anticlique n2 c56", {"experiment": "anticlique", "n": 2, "cutoff": 56}),
    ("anticlique n2 c89", {"experiment": "anticlique", "n": 2, "cutoff": 89}),
    (
        "anticlique n2 c40 64 generators",
        {
            "experiment": "anticlique",
            "n": 2,
            "cutoff": 40,
            "generator_params": [{"R": [(i + 1) / 40], "Theta": [i / 10]} for i in range(64)],
        },
    ),
    ("resolution n5 c5", {"experiment": "resolution", "n": 5, "cutoff": 5}),
    (
        "resolution n3 c6 Q2 M5",
        {"experiment": "resolution", "n": 3, "cutoff": 6, "radial_order": 2, "angular_order": 5},
    ),
    ("resolution n3 c6 fixed phi", {"experiment": "resolution", "n": 3, "cutoff": 6, "phi": FIXED_PHI}),
    ("resolution n3 c18", {"experiment": "resolution", "n": 3, "cutoff": 18}),
    ("resolution n4 c8", {"experiment": "resolution", "n": 4, "cutoff": 8}),
    (
        "resolution n3 c8 t8 Q1 M1",
        {"experiment": "resolution", "n": 3, "cutoff": 8, "trusted_block": 8, "radial_order": 1, "angular_order": 1},
    ),
    *(
        (
            f"covariant_gs c1200 Q1 M4 t{block}",
            {"experiment": "covariant_gs", "cutoff": 1200, "radial_order": 1, "angular_order": 4, "trusted_block": block},
        )
        for block in (600, 800, 1000, 1200)
    ),
    ("anticlique n3 c16 fixed phi", {"experiment": "anticlique", "n": 3, "cutoff": 16, "phi": FIXED_PHI}),
    ("anticlique n3 c12", {"experiment": "anticlique", "n": 3, "cutoff": 12}),
    ("anticlique n2 c20 seed 1", {"experiment": "anticlique", "n": 2, "cutoff": 20, "seed": 1}),
    (
        "projection n2 c89 t89 Q64 M179",
        {"experiment": "projection", "n": 2, "cutoff": 89, "trusted_block": 89, "radial_order": 64, "angular_order": 179},
    ),
]


def run_case(config, workdir: str) -> tuple[int, str, list[dict]]:
    """Exit code and stderr of ``verify`` on one case, and its reports in file-name order without ``runtime_ms``."""
    out = os.path.join(workdir, "report.json")
    argv = config
    if isinstance(config, dict):
        path = os.path.join(workdir, "config.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(config, handle)
        argv = ["--config", path]
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = cli.main([*argv, "--quiet", "--out", out])
    reports = []
    for name in sorted(os.listdir(workdir)):
        if name.startswith("report"):
            with open(os.path.join(workdir, name), encoding="utf-8") as handle:
                report = json.load(handle)
            del report["runtime_ms"]
            reports.append(report)
    return code, stderr.getvalue(), reports


def main() -> None:
    for name, config in CASES:
        with tempfile.TemporaryDirectory() as workdir:
            code, stderr, reports = run_case(config, workdir)
        line = json.dumps({"case": name, "exit": code, "stderr": stderr, "reports": reports}, separators=(",", ":"))
        sys.stdout.write(line + "\n")


if __name__ == "__main__":
    main()
