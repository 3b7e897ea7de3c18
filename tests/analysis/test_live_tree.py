"""The real src/repro tree is clean modulo the checked-in baseline.

This is the same gate CI runs (``python -m repro.analysis --strict``): if
this test fails, either fix the finding, justify it inline, or add a
justified baseline entry — never weaken a checker to make it pass.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import Baseline, analyze_paths
from repro.analysis.cli import BASELINE_FILENAME

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def baselined_result():
    """One baselined analysis of the live tree, shared by the tests below."""
    baseline = Baseline.load(REPO_ROOT / BASELINE_FILENAME)
    return analyze_paths(
        [REPO_ROOT / "src" / "repro"], root=REPO_ROOT, baseline=baseline
    )


def test_live_tree_is_clean_modulo_baseline(baselined_result):
    result = baselined_result
    assert result.exit_code(strict=True) == 0, "\n".join(
        f.render() for f in result.findings
    ) or "stale baseline entries: " + repr(result.stale_baseline)


def test_every_baseline_entry_is_still_live(baselined_result):
    """Stale suppressions must be pruned, not accumulated."""
    result = baselined_result
    assert result.stale_baseline == []
    assert result.baselined  # the checked-in entries match real findings


def test_cli_strict_gate_matches_programmatic_result():
    from repro.analysis import run

    assert run(["--root", str(REPO_ROOT), "--strict"]) == 0


def test_semantic_pass_leaves_orb_registries_untouched():
    """The semantic IDL cross-check recompiles live IDL documents; it must
    not displace the exception/interface classes the running code uses
    (a stale USER_EXCEPTION_REGISTRY entry would make ``except
    BadDeltaBase:`` miss the class the decoder rebuilds)."""
    from repro.orb.stubs import INTERFACE_ANCESTRY, USER_EXCEPTION_REGISTRY
    from repro.services import checkpoint  # populates the registries

    before_exceptions = dict(USER_EXCEPTION_REGISTRY)
    before_ancestry = dict(INTERFACE_ANCESTRY)
    assert before_exceptions, "checkpoint IDL should register exceptions"
    analyze_paths([REPO_ROOT / "src" / "repro"], root=REPO_ROOT)
    assert USER_EXCEPTION_REGISTRY == before_exceptions
    assert all(
        USER_EXCEPTION_REGISTRY[k] is v for k, v in before_exceptions.items()
    )
    assert INTERFACE_ANCESTRY == before_ancestry
