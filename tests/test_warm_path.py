"""The warm path: what one process builds once, and what every call still computes.

A process caches only what depends on the process (the argument parser) or
on a shape (the default DFT phi per n, log-factorials, the displacement
kernel's grids, index layouts and gathers).  Each
cache keys on every shape argument it takes and returns read-only arrays,
whose bases refuse writes too;
nothing computed from phi, the seed, explicit points or the rule weights is
cached, so a warm call redoes all of its numerics.
"""

import argparse
import copy
import dataclasses
import math
import pickle
import subprocess
import sys

import numpy as np
import pytest

from fockgraph import cli, config, fock, graphs, multimode, quadrature
from fockgraph.cli import main
from fockgraph.config import dft_matrix
from fockgraph.graphs import GeneratorParams, GraphSpec
from oracles import expm_displacement_oracle
from test_cli import normalize_runtime, package_env, write_config

UNDERFLOW = {"experiment": "anticlique", "n": 2, "cutoff": 8, "anticlique_params": {"X": [30], "Gamma": [0.3]}}

# (name, argv before --out, config or None) in the order one process runs them.
WARM_CASES = [
    ("suite-seed-0", ["--seed", "0"], None),
    ("anticlique-n3-c8-seed-5", [], {"experiment": "anticlique", "n": 3, "cutoff": 8, "seed": 5}),
    ("config-error", [], UNDERFLOW),
    ("resolution-n3-c6", [], {"experiment": "resolution", "n": 3, "cutoff": 6}),
    ("suite-seed-0-again", ["--seed", "0"], None),
]


def case_argv(directory, argv, data):
    directory.mkdir()
    config_argv = [] if data is None else ["--config", str(write_config(directory, data))]
    return [*config_argv, *argv, "--quiet", "--out", str(directory / "report.json")]


def reports(directory) -> dict:
    return {path.name: normalize_runtime(path.read_text()) for path in sorted(directory.glob("report*.json"))}


class TestWarmProcess:
    def test_reports_match_fresh_processes_and_the_parser_is_built_once(self, tmp_path, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli._parser.cache_clear()
        warm = {}
        (tmp_path / "warm").mkdir()
        for name, argv, data in WARM_CASES:
            code = main(case_argv(tmp_path / "warm" / name, argv, data))
            warm[name] = (code, capsys.readouterr().err, reports(tmp_path / "warm" / name))
        assert built == ["verify"]

        (tmp_path / "fresh").mkdir()
        for name, argv, data in WARM_CASES:
            fresh = subprocess.run(
                [sys.executable, "-m", "fockgraph", *case_argv(tmp_path / "fresh" / name, argv, data)],
                capture_output=True,
                text=True,
                env=package_env(),
                timeout=120,
            )
            assert warm[name] == (fresh.returncode, fresh.stderr, reports(tmp_path / "fresh" / name)), name
        # Seed 5 is one of the n=3 truncation FAILs (ROADMAP item 1); the radius-30 point cannot be checked.
        assert [warm[name][0] for name, _, _ in WARM_CASES] == [0, 1, 2, 0, 0]
        assert len(warm["suite-seed-0"][2]) == 5 and warm["suite-seed-0"][2] == warm["suite-seed-0-again"][2]


def reference_tuples(modes, rows, top=None):
    # The kept tuples of the np.indices box in row-major order, stable-sorted by total, and each sector's tuples.
    tuples = np.indices((rows,) * modes).reshape(modes, -1).T
    tuples = tuples[tuples.sum(axis=1) <= (modes * (rows - 1) if top is None else top)]
    order = np.argsort(tuples.sum(axis=1), kind="stable")
    occupations = tuples[order]
    total = occupations.sum(axis=1)
    return order, occupations, [occupations[total == n] for n in range(total[-1] + 1)]


def reference_sector_plan(modes, rows, top=None):
    return reference_tuples(modes, rows, top)[:2]


def reference_predecessors(modes, rows, top=None):
    # Each predecessor m - e_j is found by comparing m - e_j densely with every tuple of sector N-1; where
    # m_j = 0 it is 0.
    sectors = reference_tuples(modes, rows, top)[2]
    lower = []
    for there, here in zip(sectors, sectors[1:]):
        lowered = here[None] - np.eye(modes, dtype=int)[:, None]
        match = np.all(lowered[:, :, None] == there[None, None], axis=-1)
        lower.append(np.where(here.T > 0, match.argmax(axis=-1), 0))
    sizes = [len(there) for there in sectors]
    return (
        tuple(lower),
        tuple(np.sqrt(here.T)[..., None] / n for n, here in enumerate(sectors[1:], start=1)),
        tuple(at + size * np.arange(modes)[:, None] for at, size in zip(lower, sizes)),
        tuple(np.sqrt(here.T) for here in sectors[1:]),
    )


def reference_class_plan(modes, rows, cutoff, angular):
    # The rotated tuples, total by total from the (T+1)^n box.  A sector's members (level <= cutoff) sort by
    # class, the level and then the residues mod M, and by position; the members of all sectors are numbered
    # in that order.  Every pair of tuples of sectors N >= N' is compared densely: it matches where the levels
    # agree within the cutoff and every other occupation agrees mod M.  Each tuple's matches must be
    # consecutive members, each once, with no other tuple among them.
    top = modes * (rows - 1)
    box = np.indices((top + 1,) * modes).reshape(modes, -1).T
    tuples = [box[box.sum(axis=1) == total] for total in range(top + 1)]
    members, number = [], []
    for here in tuples:
        inside = np.flatnonzero(here[:, 0] <= cutoff)
        members.append(inside[np.lexsort((here[inside, 1:] % angular).T[::-1].tolist() + [here[inside, 0]])])
        number.append(np.full(len(here), -1))
        number[-1][members[-1]] = sum(map(len, members[:-1])) + np.arange(len(members[-1]))
    pairs, left, first, count = [], [], [], []
    for sector, here in enumerate(tuples):
        for other, there in enumerate(tuples[: sector + 1]):
            level = np.equal.outer(here[:, 0], there[:, 0]) & (here[:, 0] <= cutoff)[:, None]
            match = level & np.all(here[:, None, 1:] % angular == there[None, :, 1:] % angular, axis=-1)
            matched = np.flatnonzero(match.any(axis=1))
            if matched.size:
                spans = [number[other][np.flatnonzero(match[i])] for i in matched]
                assert all(np.array_equal(span, np.arange(span[0], span[0] + len(span))) for span in spans)
                pairs.append((sector, other, len(left), len(left) + len(matched)))
                left.extend(number[sector][matched])
                first.extend(span[0] for span in spans)
                count.extend(len(span) for span in spans)
    right = np.concatenate([here[at, 1:] for here, at in zip(tuples, members)])
    return np.concatenate(members), right, np.array(pairs), np.array(left), np.array(first), np.array(count)


def reference_convolution_plan(levels):
    # Entry by entry: the flat index of (r, k - k') and of (k - k', b) in an L x L array, or L^2 (its trailing 0)
    # where k < k'.
    empty = levels * levels
    shift = np.full((levels, levels, levels), empty)
    toeplitz = np.full((levels, levels, levels), empty)
    for low in range(levels):
        for row in range(levels):
            for high in range(low, levels):
                shift[low, row, high] = row * levels + high - low
                toeplitz[high, row, low] = (high - low) * levels + row
    return shift.reshape(levels, empty), toeplitz.reshape(levels, empty)


def reference_kernel_grid(cutoff, rows):
    # Entry by entry from lgamma: entry (m, n)'s order |m - n|, its row 2 |m - n| + [m < n] of the powers and
    # min(m, n) (cutoff + 1) + |m - n| of the Laguerre values, and log sqrt(min! / (min + order)!); per order
    # k, log C(d + k, d) at the deepest kept index d = min(rows - 1, cutoff - k), and (-1)^k for both parts
    # of alpha^k with conj's sign on the second.
    dim = cutoff + 1
    log_factorial = [math.lgamma(m + 1) for m in range(dim)]
    entries = [[(abs(m - n), min(m, n)) for n in range(dim)] for m in range(rows)]
    deepest = [min(rows - 1, cutoff - k) for k in range(dim)]
    half_log_ratio = [[[0.5 * (log_factorial[low] - log_factorial[low + order])] for order, low in row] for row in entries]
    return (
        np.array([[order for order, _ in row] for row in entries]),
        np.array([[2 * abs(m - n) + (m < n) for n in range(dim)] for m in range(rows)]),
        np.array([[low * dim + order for order, low in row] for row in entries]),
        np.arange(dim).reshape(dim, 1),
        np.array([[log_factorial[d + k] - log_factorial[d] - log_factorial[k]] for k, d in enumerate(deepest)]),
        np.array(half_log_ratio),
        np.array([[(-1.0) ** k, -((-1.0) ** k)] for k in range(dim)]),
    )


# Per cache: the cached helper, an independent reference, and keys that
# each change one argument of the key before, then return to the first.
CACHES = {
    "default_phi": (config._default_phi, dft_matrix, [(2,), (3,), (4,), (2,)]),
    "log_factorials": (
        fock._log_factorials,
        lambda top: np.array([math.lgamma(m + 1) for m in range(top + 1)]),
        [(8,), (16,), (8,)],
    ),
    "sector_plan": (
        multimode._sector_plan,
        reference_sector_plan,
        [(3, 5), (2, 5), (2, 8), (2, 8, 9), (2, 8, 4), (3, 5)],
    ),
    "predecessors": (
        quadrature._predecessors,
        reference_predecessors,
        [(3, 5), (2, 5), (2, 8), (2, 8, 9), (2, 8, 4), (3, 5)],
    ),
    "class_plan": (
        quadrature._class_plan,
        reference_class_plan,
        [(3, 3, 4, 5), (2, 3, 4, 5), (2, 4, 4, 5), (2, 4, 2, 5), (2, 4, 2, 3), (3, 3, 4, 5)],
    ),
    "convolution_plan": (graphs._convolution_plan, reference_convolution_plan, [(9,), (7,), (9,)]),
    "kernel_grid": (fock._kernel_grid, reference_kernel_grid, [(8, 9), (8, 5), (12, 5), (8, 9)]),
}


# Value classes whose arrays refuse writes as a cache's do, in their deep copies and pickle round trips too.
VALUES = {
    "generator_params": lambda: GeneratorParams([0.4, 0.7], [0.1, 2.0]),
    "generator_params_scalar": lambda: GeneratorParams(0.5, 0.25),  # its radii and phases view 0-d copies
    "graph_spec": lambda: GraphSpec(phi=dft_matrix(3), modes=3, cutoff=4),
    "radial_scheme": lambda: quadrature.RadialScheme([0.5, 2.0], [0.75, 0.25]),
}


def leaves(value, bases=False):
    """The arrays a cache returns or a value class holds, flattened out of tuples and fields; other values are skipped.

    With ``bases``, each array is followed by every array it views, down its ``.base`` chain.
    """
    if dataclasses.is_dataclass(value):
        value = tuple(getattr(value, field.name) for field in dataclasses.fields(value))
    if isinstance(value, tuple):
        return [leaf for item in value for leaf in leaves(item, bases)]
    if not isinstance(value, np.ndarray):
        return []
    return [value, *leaves(value.base, bases)] if bases else [value]


class TestCacheContract:
    @pytest.mark.parametrize("name", sorted(CACHES))
    def test_keys_on_every_shape_argument(self, name):
        cached, reference, keys = CACHES[name]
        cached.cache_clear()
        for key in keys:
            got, expected = leaves(cached(*key)), leaves(reference(*key))
            assert len(got) == len(expected), (name, key)
            for value, want in zip(got, expected):
                assert np.array_equal(value, want), (name, key)

    @pytest.mark.parametrize("name", sorted(CACHES) + sorted(VALUES))
    def test_returns_read_only_arrays(self, name):
        # Every array reachable from the result, and every array those view: a write through a base
        # would change what the view, and so the next call, reads.
        if name in VALUES:
            value = VALUES[name]()
            values = (value, copy.deepcopy(value), pickle.loads(pickle.dumps(value)))
        else:
            cached, _, keys = CACHES[name]
            values = cached(*keys[0])
        arrays = leaves(values, bases=True)
        assert arrays, name
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0

    def test_displacement_rows_follow_cutoff_and_rows(self):
        # Each (cutoff, rows) against the expm oracle, changing one argument at a time.
        fock._log_factorials.cache_clear()
        alpha = 0.6 - 0.3j
        for cutoff, rows in [(12, 7), (12, 13), (16, 13), (16, 5), (12, 7)]:
            got = fock.displacement_matrix(alpha, cutoff, rows=rows)
            oracle = expm_displacement_oracle(alpha, cutoff, 40)[:rows]
            assert got.shape == (rows, cutoff + 1)
            assert np.max(np.abs(got - oracle)) < 1e-13, (cutoff, rows)

    def test_public_dft_matrix_stays_fresh_and_writable(self):
        shared = config._default_phi(3)
        fresh = dft_matrix(3)
        assert fresh is not shared and fresh.flags.writeable
        fresh[0, 0] = 7.0
        assert np.array_equal(config._default_phi(3), dft_matrix(3))

    def test_configs_without_phi_share_the_default(self):
        first = config.config_from_dict({"experiment": "projection", "n": 3, "cutoff": 6})
        second = config.config_from_dict({"experiment": "anticlique", "n": 3, "cutoff": 8, "seed": 9})
        assert first.phi is second.phi is config._default_phi(3)


class TestNumericsRunOnEveryCall:
    @pytest.mark.parametrize(
        "data, module, helper",
        [
            ({"experiment": "gs", "cutoff": 8}, quadrature, "_rule_operator"),
            ({"experiment": "anticlique", "n": 2, "cutoff": 16, "seed": 0}, graphs, "_mode_factors"),
            ({"experiment": "anticlique", "n": 3, "cutoff": 8, "seed": 0}, graphs, "_mode_factors"),
        ],
        ids=["gs", "anticlique-n2", "anticlique"],
    )
    def test_a_repeated_call_is_no_lookup(self, tmp_path, monkeypatch, data, module, helper):
        # Every call of the same config computes the helper's result afresh: a new, writable
        # array each time, never one a cache hands back again.
        results = []
        original = getattr(module, helper)

        def recording(*args, **kwargs):
            results.append(original(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(module, helper, recording)
        path = write_config(tmp_path, data)
        seen = []
        for _ in range(3):
            assert main(["--config", str(path), "--quiet", "--out", str(tmp_path / "report.json")]) == 0
            seen.append(len(results))
        assert seen[0] >= 1 and seen == [seen[0] * (i + 1) for i in range(3)]
        assert all(result.flags.writeable for result in results)
        assert len({id(result) for result in results}) == len(results)

    def test_a_spec_cannot_change_the_shared_default_phi(self):
        cfg = config.config_from_dict({"experiment": "anticlique", "n": 2, "cutoff": 8})
        spec = GraphSpec(phi=cfg.phi, modes=2, cutoff=8)
        with pytest.raises(ValueError, match="read-only"):
            spec.phi[0, 0] = 1.0
        assert np.array_equal(config.config_from_dict({"experiment": "gs"}).phi, dft_matrix(2))
