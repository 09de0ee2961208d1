"""The correctness gate: each query's output against its frozen expectation.

Only labelling-invariant fields are compared, so a relabelled ``file:``
table is held to the same expectation on every seed. A named group queried
with ``--kernel`` also has the sha256 of its kernel basis frozen.
"""

from __future__ import annotations

import hashlib
import json
import os

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")

FIELDS = {
    "radon": ("order", "rows", "rank", "kernel_dim", "injective", "method"),
    "flow": ("size", "orbits", "rows", "rank", "kernel_dim", "injective", "method"),
    "group": ("order", "abelian", "cyclic", "invariant_factors"),
    "verify": ("total", "failed", "passed"),
    "spectral": (
        "order", "kernel_dim", "faithful_count", "kernel_matches_faithful",
        "char_sum_exact", "fourier_ok", "rep_dims", "projections_ok",
        "predicted_kernel_dim", "dichotomies",
    ),
}


def load_expected(path: str = EXPECTED_PATH) -> dict[str, dict]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def observe(qid: str, stdout: str) -> dict:
    """The checked fields of one query's JSON output."""
    payload = json.loads(stdout)
    words = qid.split()
    got = {key: payload[key] for key in FIELDS[words[0]] if key in payload}
    if words[0] == "radon" and "--kernel" in words and not words[1].startswith("file:"):
        kernel = json.dumps(payload["kernel"], separators=(",", ":"))
        got["kernel_sha256"] = hashlib.sha256(kernel.encode()).hexdigest()
    return got


def failure(result: dict | None, expected: dict[str, dict]) -> str | None:
    """Why one query failed, or None when it ran and matched."""
    if result is None:
        return "not run: the pass ended before this query"
    if result["error"] is not None:
        return result["error"]
    if result["rc"] != 0:
        return f"exit code {result['rc']}"
    want = expected.get(result["id"])
    if want is None:
        return "no frozen expectation for this query"
    try:
        got = observe(result["id"], result["stdout"])
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
    diffs = sorted(key for key in set(want) | set(got) if want.get(key) != got.get(key))
    if diffs:
        return "differs from the frozen expectation in " + ", ".join(diffs)
    return None
