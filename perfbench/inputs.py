"""Pinned workload inputs: minting, digest check and run order.

Each workload's corpus is a pinned generator seed range over the three
``repro.corpus`` profiles, described in ``workloads.json`` together
with the generator config each profile resolves to and a SHA-256
digest of the minted sources.  A run whose configs or sources differ
from the recorded ones stops with an error instead of reporting
numbers that cannot be compared with earlier runs.

The ``--seed`` of a run never changes the corpus; it orders the items
within each pass and shapes the daemon's request sequence.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

SPEC_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "workloads.json")


class InputDrift(RuntimeError):
    """The minted inputs differ from the ones ``workloads.json`` pins."""


@dataclass(frozen=True)
class Item:
    """One corpus program."""

    name: str
    source: str


def load_spec(workload: str) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """``(workload spec, deck spec)`` from ``workloads.json``."""
    with open(SPEC_PATH) as handle:
        document = json.load(handle)
    return document["workloads"][workload], document["deck"]


def workload_names() -> List[str]:
    with open(SPEC_PATH) as handle:
        return list(json.load(handle)["workloads"])


def mint(spec: Dict[str, Any]) -> List[Item]:
    """Mint the workload's corpus and check it against the pinned spec."""
    from repro.corpus import generate_source, item_name, profile_config

    lo, hi = spec["seed_range"]
    items: List[Item] = []
    digest = hashlib.sha256()
    for entry in spec["profiles"]:
        config = profile_config(
            entry["profile"], entry["statements"], entry["max_depth"]
        )
        if config.to_dict() != entry["config"]:
            raise InputDrift(
                f"profile {entry['profile']!r} now resolves to "
                f"{json.dumps(config.to_dict(), sort_keys=True)}"
            )
        for seed in range(lo, hi):
            name = item_name(seed, prefix=f"{entry['profile']}-")
            source = generate_source(seed, config)
            digest.update(f"{name}\0{source}\0".encode("utf-8"))
            items.append(Item(name, source))
    if len(items) != spec["programs"]:
        raise InputDrift(
            f"minted {len(items)} programs, workloads.json pins "
            f"{spec['programs']}"
        )
    if digest.hexdigest() != spec["sha256"]:
        raise InputDrift(
            f"minted sources have sha256 {digest.hexdigest()}, "
            f"workloads.json pins {spec['sha256']}"
        )
    return items


def stable_seed(*parts: Any) -> int:
    """A 63-bit seed derived from *parts*, stable across processes."""
    text = "\0".join(str(part) for part in parts)
    return int.from_bytes(
        hashlib.sha256(text.encode("utf-8")).digest()[:8], "big"
    ) >> 1
