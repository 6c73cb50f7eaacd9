"""Regenerate ``golden_sessions.json`` — the session checkpoint-byte pin.

Pins the SHA-256 of ``json.dumps(payload, sort_keys=True)`` (the key
order :func:`repro.io.dump_json_atomic` writes) for every session
artifact a checkpoint consumer can see:

* every policy × {uniform, bursty, poisson, sliding_window} × {plain,
  sharded with one lane, sharded with three lanes}: the mid-stream
  checkpoint, the checkpoint after resuming it and running to the end,
  and the final summary;
* one 3 → 5 reshard manifest per arrival process;
* the per-tenant checkpoint files a four-tenant serve leaves under its
  checkpoint root.

:mod:`tests.online.test_golden_sessions` recomputes every cell and
requires the digests to match, so a refactor of the session layer is
proven byte-identical on disk.  Rerun only when an *intentional* format
or behaviour change lands::

    PYTHONPATH=src:. python tests/online/generate_golden_sessions.py
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

from repro.online.checkpoint import read_tenant_checkpoint
from repro.online.serving import ServingLoop, TenantSpec
from repro.online.session import (
    SESSION_POLICIES,
    reshard_session,
    resume_any_session,
    start_session,
    start_sharded_session,
)

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_sessions.json")

PROCESSES = ("uniform", "bursty", "poisson", "sliding_window")
#: plain session, sharded path with one lane, sharded path with three.
TOPOLOGIES = ("plain", "shards1", "shards3")
N, K, SEED = 24, 3, 20100612


def digest(payload: object) -> str:
    """SHA-256 of the on-disk (sorted-key) JSON form of *payload*."""
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _roundtrip(payload: object) -> object:
    return json.loads(json.dumps(payload))


def _start(policy: str, process: str, topology: str):
    kwargs = dict(policy=policy, family="additive", n=N, k=K, seed=SEED,
                  process=process)
    if topology == "plain":
        return start_session(**kwargs)
    return start_sharded_session(
        shards=1 if topology == "shards1" else 3, **kwargs)


def session_cells() -> dict:
    """Mid-stream, resumed-final, and summary digests per session cell."""
    out = {}
    for policy in SESSION_POLICIES:
        for process in PROCESSES:
            for topology in TOPOLOGIES:
                session = _start(policy, process, topology).advance(N // 2)
                mid = _roundtrip(session.checkpoint())
                resumed = resume_any_session(mid).advance()
                out[f"{policy}/{process}/{topology}"] = {
                    "mid": digest(mid),
                    "final": digest(resumed.checkpoint()),
                    "summary": digest(resumed.summary()),
                }
    return out


def reshard_cells() -> dict:
    """One 3 → 5 reshard manifest digest per arrival process."""
    out = {}
    for process in PROCESSES:
        session = _start("monotone", process, "shards3").advance(N // 2)
        manifest = reshard_session(_roundtrip(session.checkpoint()), 5)
        out[f"monotone/{process}/3>5"] = digest(manifest)
    return out


def serve_specs() -> list:
    """The four tenants of the serve cell (plain, sharded, mixed policies)."""
    return [
        TenantSpec("plain", policy="monotone", family="additive", n=N, k=K,
                   seed=SEED, process="uniform"),
        TenantSpec("sharded", policy="robust", family="additive", n=N, k=K,
                   seed=SEED + 1, process="bursty", shards=3),
        TenantSpec("knapsack", policy="knapsack", family="additive", n=N,
                   k=K, seed=SEED + 2, process="poisson"),
        TenantSpec("cut", policy="nonmonotone", family="cut", n=N, k=K,
                   seed=SEED + 3, process="sliding_window"),
    ]


def serve_cells() -> dict:
    """Digests of each tenant's checkpoint file after a completed serve."""
    specs = serve_specs()
    with tempfile.TemporaryDirectory() as root:
        ServingLoop(specs, checkpoint_root=root).serve()
        return {
            spec.tenant_id: digest(read_tenant_checkpoint(root, spec.tenant_id))
            for spec in specs
        }


def main() -> None:
    golden = {
        "sessions": session_cells(),
        "reshard": reshard_cells(),
        "serve": serve_cells(),
    }
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
