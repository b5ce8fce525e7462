"""Repo-wide pytest configuration: markers and test-harness options.

Three test tiers live in this repo (see TESTING.md):

* invariant tests (``-m invariants``) — property-based checks over
  randomized workloads, crankable with ``--invariant-examples``;
* equivalence tests — one engine configuration must reproduce another
  exactly (cluster-of-one vs the single simulator, refactored split vs
  its golden snapshot);
* golden tests — tiny-preset figure runs compared byte-for-byte against
  serialized snapshots under ``tests/golden/`` (``--update-golden``
  rewrites them).
"""

from __future__ import annotations

import pytest


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite the golden snapshots under tests/golden/ instead of comparing",
    )
    parser.addoption(
        "--invariant-examples",
        type=int,
        default=None,
        metavar="N",
        help="random examples per property-based invariant test (default: a fast CI-sized run)",
    )


def pytest_configure(config: pytest.Config) -> None:
    config.addinivalue_line(
        "markers",
        "invariants: property-based serving-core invariant suite (crank with --invariant-examples)",
    )
    config.addinivalue_line(
        "markers",
        "golden: byte-exact golden-report regression tests (refresh with --update-golden)",
    )
    config.addinivalue_line(
        "markers",
        "elastic: elastic fleet control-plane tests (autoscaling policies, lifecycle, e2e)",
    )
    config.addinivalue_line(
        "markers",
        "paging: memory-pressure serving tests (KV eviction, migration, recomputation)",
    )
    config.addinivalue_line(
        "markers",
        "sharded: sharded-replica tests (TP x EP fleets, device budgets, shared experts)",
    )
    config.addinivalue_line(
        "markers",
        "chaos: fault-tolerance tests (failure injection, health-checked recovery, retries)",
    )
    config.addinivalue_line(
        "markers",
        "prefix: shared-prefix KV dedup tests (radix index properties, affinity routing)",
    )
    config.addinivalue_line(
        "markers",
        "simlint: determinism-linter tests (fixture-driven rules, suppressions, baseline)",
    )
    config.addinivalue_line(
        "markers",
        "fleet: lazy fleet-loop equivalence tests (lazy == forced-eager advancing)",
    )
    config.addinivalue_line(
        "markers",
        "columnar: columnar <-> scalar oracle tests (fast path == per-stage loop)",
    )
    try:
        from hypothesis import settings
    except ImportError:  # property tests skip themselves via importorskip
        return
    examples = config.getoption("--invariant-examples")
    settings.register_profile(
        "serving-invariants",
        max_examples=examples if examples is not None else 8,
        deadline=None,  # stage pricing is minutes-scale work, not microseconds
        derandomize=examples is None,  # CI-sized runs are reproducible; cranked runs explore
        print_blob=True,
    )
    settings.load_profile("serving-invariants")
