"""Workload definitions and the pinned covering corpus.

The corpus is a pool of covering specs per genus, generated once with
``hurwitztau.samples`` and committed under ``perfbench/pool/``.  A workload
takes the first few pool specs of each profile.  A run never samples: its
``--seed`` only picks the order in which those pinned specs are visited, so
every run, on any commit, measures identical inputs even when the sampler
(which rejection-samples through ``critical_data``) changes.

Regenerate the pool (a benchmark change of its own) with

    python3 perfbench/corpus.py generate

This module imports only the standard library; ``generate`` imports
``hurwitztau`` from ``src/``.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
POOL_DIR = BENCH_DIR / "pool"

# Profiles the sampler can produce at the seed commit.  Genus-1 pole orders
# >= 4 (zeta_derivs caps the derivative order) and genus-0 profiles with two
# order-4 poles (the boundary test rejects them) are left out; adding them is
# a change to this pool.
PROFILES = {
    1: [(2,), (1, 1), (3,), (2, 1), (1, 1, 1), (2, 2), (3, 1)],
    0: [(3,), (4,), (2, 1), (2, 2), (3, 2), (2, 1, 1), (3, 3), (2, 3), (4, 2), (3, 1, 1)],
}
# specs per profile in the pool, and the first sampler seed of each genus
POOL_PER_PROFILE = {1: 12, 0: 100}
POOL_SEED_BASE = {1: 910_000, 0: 920_000}

# Warm-up specs, outside the pool: the built-in examples h12 and a2.
WARMUP_SPECS = {
    1: {"genus": 1, "profile": [2], "modulus": [0.0, 1.1], "constant": [0.0, 0.0],
        "poles": [{"b": [0.23, 0.31], "c": [[0.0, 0.0], [1.0, 0.05]]}]},
    0: {"genus": 0, "profile": [3], "poly_coeffs": [[0.0, 0.0], [-3.0, 0.0]], "poles": []},
}

# name -> (genus of the corpus, CLI arguments before/after the spec path,
# specs per profile).  The spec counts make one pass over the corpus take
# about 7-10 s at the reference speed, so a run holds whole passes.
WORKLOADS = {
    "analyze-g1": (1, ["analyze"], ["--json"], 6),
    "check-g1": (1, ["check"], [], 3),
    "check-g0": (0, ["check"], [], 50),
}


def pool_path(genus: int) -> Path:
    return POOL_DIR / f"genus{genus}.json"


def canonical_hash(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def load_pool(genus: int) -> list[dict]:
    """Pool entries {"id", "profile", "sampler_seed", "spec"} of one genus."""
    with open(pool_path(genus), encoding="utf-8") as fh:
        doc = json.load(fh)
    return doc["entries"]


def run_corpus(genus: int, seed: int, per_profile: int) -> list[dict]:
    """The first ``per_profile`` pool entries of each profile, in an order fixed by ``seed``.

    Each profile's entries are shuffled by the seed and the profiles are then
    taken round-robin in a fixed order, so every prefix of the list keeps
    the profile mix balanced.
    """
    rng = random.Random(seed)
    by_profile: dict[tuple, list[dict]] = {tuple(p): [] for p in PROFILES[genus]}
    for entry in load_pool(genus):
        entries = by_profile[tuple(entry["profile"])]
        if len(entries) < per_profile:
            entries.append(entry)
    for entries in by_profile.values():
        rng.shuffle(entries)
    rounds = max(len(v) for v in by_profile.values())
    return [
        entries[r]
        for r in range(rounds)
        for entries in by_profile.values()
        if r < len(entries)
    ]


def generate(genus: int) -> dict:
    from hurwitztau import cli, samples

    sample = samples.random_covering1 if genus == 1 else samples.random_covering0
    entries = []
    for p_idx, profile in enumerate(PROFILES[genus]):
        for i in range(POOL_PER_PROFILE[genus]):
            seed = POOL_SEED_BASE[genus] + 1000 * p_idx + i
            cov = sample(profile, seed)
            entries.append({
                "id": f"g{genus}-{'.'.join(map(str, profile))}-{i}",
                "profile": list(profile),
                "sampler_seed": seed,
                "spec": cli.covering_to_spec(cov),
            })
    return {"genus": genus, "generator": "hurwitztau.samples", "entries": entries}


def main(argv: list[str]) -> int:
    if argv != ["generate"]:
        print("usage: python3 perfbench/corpus.py generate", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH_DIR.parent / "src"))
    POOL_DIR.mkdir(exist_ok=True)
    for genus in (1, 0):
        doc = generate(genus)
        lines = ",\n".join(json.dumps(e) for e in doc["entries"])
        with open(pool_path(genus), "w", encoding="utf-8") as fh:
            fh.write(f'{{"genus": {genus}, "generator": "{doc["generator"]}", '
                     f'"entries": [\n{lines}\n]}}\n')
        print(f"genus {genus}: {len(doc['entries'])} specs, "
              f"sha256 {canonical_hash(doc['entries'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
