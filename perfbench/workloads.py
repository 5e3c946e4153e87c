"""The benchmark's workloads and their recorded output digests.

Each workload is one ``gbsclust bench`` config.  Its master seeds come from
the benchmark's ``--seed``: the seed draws candidate master seeds, and those
whose datasets have the recorded seed's counts at the ``matched_sizes``
largest point counts are used.  Bench time is dominated by
the few largest datasets (a sweep costs about m^2 2^m), so without this the
number of 25-node datasets alone moves a ``bench-default`` run between 8 s
and 22 s.  Point layouts, graphs and draws still change with every seed.
Each call of a run takes the next matching candidate, so a run's calls
sample several inputs of one size profile.  The recorded seed's first call
runs the recorded seed itself, and its outputs must match the recorded
sha256 digests byte for byte.
"""

from __future__ import annotations

import numpy as np

RECORDED_SEED = 6

WORKLOADS = {
    # the paper's table and the byte-gated output: BenchConfig() unchanged
    "bench-default": {"config": {}, "matched_sizes": 3},
    # threshold-detector tables; the hafnian sweep is never called
    "bench-threshold": {
        "config": {"gbs_mode": "threshold", "m_min": 12, "m_max": 18},
        "matched_sizes": 3,
    },
    # many small graphs: baselines, calibration and driver code dominate;
    # 240 datasets average the size mix out without matching
    "bench-small": {
        "config": {"dataset_count": 240, "m_min": 8, "m_max": 14},
        "matched_sizes": 0,
    },
}

# sha256 of report.csv and summary.json at RECORDED_SEED
DIGESTS = {
    "bench-default": {
        "report.csv": "0d201741d1ffcbf0c9d3b492f3b1c26854bdab1568651a565a5910c0f2291adc",
        "summary.json": "7130d3a6490c1d31c1a62910594982657e4b156562387f1e0c32e0612edc4fef",
    },
    "bench-threshold": {
        "report.csv": "c3524082d59f0ff7f9abbeb4a27dd1aa112203c06ad4626abc35f6cb4fe5fc37",
        "summary.json": "a9e55ac345d86a36352cb7487243601ad455e7a8065d4627b3d17d89faadf5db",
    },
    "bench-small": {
        "report.csv": "98f0368e4e0c54074510438d7e3b167097c1686bd55339f1ef2c63dfde245a1a",
        "summary.json": "feace7b86bbf0afc58c2021ff6189577a3225d1db9fea62cef695468f6e522aa",
    },
}

_MAX_CANDIDATES = 50_000


def _derive(*entropy: int) -> int:
    return int(np.random.SeedSequence(list(entropy)).generate_state(1, np.uint64)[0])


def dataset_sizes(master_seed: int, dataset_count: int, m_min: int, m_max: int) -> list[int]:
    """Point count of each dataset ``run_benchmark`` generates.

    Mirrors the bench's per-dataset seed derivation; the traced run checks
    this against the sizes ``generate_dataset`` actually receives.
    """
    return [
        int(np.random.default_rng(_derive(master_seed, idx)).integers(m_min, m_max + 1))
        for idx in range(dataset_count)
    ]


def _profile(sizes: list[int], m_max: int, matched: int) -> tuple[int, ...]:
    return tuple(sizes.count(m_max - j) for j in range(matched))


def master_seeds(seed: int, dataset_count: int, m_min: int, m_max: int, matched: int):
    """Master seeds for the calls of a run, one per call, drawn from ``seed``.

    Candidates are ``seed`` itself, then seeds derived from (``seed``, j)
    for j = 1, 2, ...; those whose size profile matches the recorded seed's
    are yielded in order, so the recorded seed's first call runs the
    recorded seed itself.
    """
    target = _profile(dataset_sizes(RECORDED_SEED, dataset_count, m_min, m_max), m_max, matched)
    candidate, j, misses = seed, 0, 0
    while misses < _MAX_CANDIDATES:
        sizes = dataset_sizes(candidate, dataset_count, m_min, m_max)
        if _profile(sizes, m_max, matched) == target:
            misses = 0
            yield candidate
        else:
            misses += 1
        j += 1
        candidate = int(np.random.SeedSequence([seed, j]).generate_state(1)[0])
    raise RuntimeError(f"no master seed with size profile {target} drawn from seed {seed}")
