"""Tests for reprolint (repro.analysis_static): rules R1-R3, pragmas, CLI.

Each rule gets a good/bad fixture pair written to ``tmp_path``: the bad
fixture must be caught (correct rule id, correct line neighbourhood) and
the good fixture must lint clean -- so a rule that silently stops firing
fails the suite, not just the invariant it guards.  The repo-wide smoke
test at the bottom pins the tree itself at zero findings: reverting one of
the fixes this linter forced (e.g. the ``BatchProbeResult.responsive_mask``
readonly wrap) makes this suite fail, not just CI lint.
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis_static import lint_paths
from repro.analysis_static.__main__ import main as reprolint_main
from repro.analysis_static.engine import RULE_REGISTRY, LintUsageError

REPO_ROOT = Path(__file__).resolve().parents[1]


def lint_fixture(tmp_path, sources: dict[str, str], select=None):
    """Write *sources* under tmp_path and lint them; returns the findings."""
    for name, text in sources.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    findings, files_checked = lint_paths([tmp_path], select=select)
    assert files_checked == len(sources)
    return findings


def rules_of(findings):
    return sorted({f.rule for f in findings})


# -- registry ----------------------------------------------------------------


def test_all_three_rules_registered():
    assert sorted(RULE_REGISTRY) == ["R1", "R2", "R3"]


# -- R1 determinism ----------------------------------------------------------

R1_BAD = """
    import random
    import numpy as np
    import time
    from datetime import datetime

    def draw():
        rng = random.Random()          # unseeded
        x = random.random()            # module-level global state
        y = np.random.rand(4)          # legacy global-state API
        started = time.time()          # wall clock
        stamp = datetime.now()         # wall clock
        return rng, x, y, started, stamp
"""

R1_GOOD = """
    import random
    import numpy as np

    def draw(seed: int):
        rng = random.Random(seed)
        gen = np.random.default_rng(seed)
        return rng.random(), gen.random(4)
"""


def test_r1_catches_unseeded_and_wallclock(tmp_path):
    findings = lint_fixture(tmp_path, {"pkg/bad.py": R1_BAD})
    assert rules_of(findings) == ["R1"]
    messages = " | ".join(f.message for f in findings)
    assert "unseeded random.Random()" in messages
    assert "random.random()" in messages
    assert "np.random.rand()" in messages
    assert "time.time" in messages
    assert "datetime.now" in messages
    assert len(findings) == 5


def test_r1_good_fixture_is_clean(tmp_path):
    assert lint_fixture(tmp_path, {"pkg/good.py": R1_GOOD}) == []


def test_r1_wallclock_allowed_in_scripts_paths(tmp_path):
    source = """
        import time

        def main():
            started = time.time()
            return started
    """
    # Same code: flagged under pkg/, allowed under scripts/ (CLI timing).
    assert rules_of(lint_fixture(tmp_path / "a", {"pkg/cli.py": source})) == ["R1"]
    assert lint_fixture(tmp_path / "b", {"scripts/cli.py": source}) == []


def test_r1_seeded_rng_still_required_in_scripts(tmp_path):
    source = """
        import random

        def main():
            return random.Random()
    """
    findings = lint_fixture(tmp_path, {"scripts/cli.py": source})
    assert rules_of(findings) == ["R1"]


# -- R2 snapshot immutability ------------------------------------------------

R2_BAD_FROZEN = """
    class Columns:
        __frozen_arrays__ = ("hi", "lo")

        def __init__(self, hi, lo):
            self.hi = hi        # construction stores are fine
            self.lo = lo

        def clobber(self, hi):
            self.hi = hi        # rebind of a frozen slot

        def poke(self):
            self.hi[0] = 1      # in-place element store

        def mangle(self):
            self.lo.sort()      # mutating ndarray call
"""

R2_GOOD_FROZEN = """
    class Columns:
        __frozen_arrays__ = ("hi", "lo")

        def __init__(self, hi, lo):
            self.hi = hi
            self.lo = lo
            self.count = len(hi)

        def widened(self, hi, lo):
            return Columns(hi, lo)   # copy-on-write: new object, no mutation

        def retag(self, count):
            self.count = count       # not a declared frozen slot
"""


def test_r2_catches_frozen_class_mutation(tmp_path):
    findings = lint_fixture(tmp_path, {"pkg/bad.py": R2_BAD_FROZEN})
    assert rules_of(findings) == ["R2"]
    messages = " | ".join(f.message for f in findings)
    assert "store to frozen attribute self.hi" in messages
    assert "in-place element store to frozen attribute self.hi" in messages
    assert "mutating call self.lo.sort()" in messages
    assert len(findings) == 3


def test_r2_good_fixture_is_clean(tmp_path):
    assert lint_fixture(tmp_path, {"pkg/good.py": R2_GOOD_FROZEN}) == []


def test_r2_name_registered_class_freezes_every_attr(tmp_path):
    source = """
        class HitlistSnapshot:
            def __init__(self, rows):
                self.rows = rows

            def trim(self, rows):
                self.rows = rows
    """
    findings = lint_fixture(tmp_path, {"pkg/snap.py": source})
    assert rules_of(findings) == ["R2"]
    assert len(findings) == 1


def test_r2_cross_file_store_through_frozen_attr(tmp_path):
    consumer = """
        def corrupt(columns):
            columns.hi[0] = 7
    """
    findings = lint_fixture(
        tmp_path, {"pkg/cols.py": R2_GOOD_FROZEN, "pkg/consumer.py": consumer}
    )
    assert rules_of(findings) == ["R2"]
    assert "declared-frozen attribute .hi" in findings[0].message


def test_r2_publish_boundary_bare_slice_vs_readonly(tmp_path):
    bad = """
        class BatchProbeResult:
            def responsive_mask(self, i):
                return self.responsive[:, i]
    """
    good = """
        from repro.addr.batch import readonly_view

        class BatchProbeResult:
            def responsive_mask(self, i):
                return readonly_view(self.responsive[:, i])
    """
    findings = lint_fixture(tmp_path / "a", {"pkg/bad.py": bad})
    assert rules_of(findings) == ["R2"]
    assert "bare slice" in findings[0].message
    assert lint_fixture(tmp_path / "b", {"pkg/good.py": good}) == []


def test_r2_publish_boundary_bare_asarray(tmp_path):
    source = """
        import numpy as np

        class BatchProbeResult:
            def responsive_mask(self, i):
                return np.asarray(self.rows[i])
    """
    findings = lint_fixture(tmp_path, {"pkg/bad.py": source})
    assert rules_of(findings) == ["R2"]
    assert "np.asarray" in findings[0].message


R2_BAD_CACHE = """
    class Scan:
        __frozen_arrays__ = ("responsive",)

        def __init__(self, rows):
            self.responsive = rows
            self._sets = {}
            self._names = None

        def responsive_on(self, key):
            cached = self._sets.get(key)
            if cached is None:
                cached = self._sets[key] = set(self.responsive)
            return cached               # one shared set per key

        def names(self):
            if self._names is None:
                self._names = [str(r) for r in self.responsive]
            return self._names          # one shared list

        def index(self, key):
            if key not in self._sets:
                self._sets[key] = {r: i for i, r in enumerate(self.responsive)}
            return self._sets.get(key)  # one shared dict per key
"""

R2_GOOD_CACHE = """
    class Scan:
        __frozen_arrays__ = ("responsive",)

        def __init__(self, rows):
            self.responsive = rows
            self._sets = {}
            self._names = None

        def responsive_on(self, key):
            cached = self._sets.get(key)
            if cached is None:
                cached = self._sets[key] = frozenset(self.responsive)
            return cached

        def names(self):
            if self._names is None:
                self._names = tuple(str(r) for r in self.responsive)
            return self._names

        def sorted_rows(self):
            return sorted(self.responsive)   # a new list for each caller


    class Scratch:
        def __init__(self):
            self._memo = None

        def memo(self):
            self._memo = {"rows": 1}         # not a frozen class
            return self._memo
"""


def test_r2_catches_cached_mutable_returns(tmp_path):
    findings = lint_fixture(tmp_path, {"pkg/bad.py": R2_BAD_CACHE})
    assert rules_of(findings) == ["R2"]
    messages = sorted(f.message for f in findings)
    assert len(messages) == 3
    assert "Scan.index returns a cached mutable dict" in messages[0]
    assert "Scan.names returns a cached mutable list" in messages[1]
    assert "Scan.responsive_on returns a cached mutable set" in messages[2]


def test_r2_good_cache_fixture_is_clean(tmp_path):
    assert lint_fixture(tmp_path, {"pkg/good.py": R2_GOOD_CACHE}) == []


# -- R3 lock discipline ------------------------------------------------------

R3_BAD = """
    import threading

    class Server:
        _GUARDED_BY = {"_snapshots": "_publish_lock"}

        def __init__(self):
            self._publish_lock = threading.Lock()
            self._snapshots = {}     # __init__ is exempt

        def generations(self):
            return sorted(self._snapshots)   # unguarded read

        def forget(self):
            self._snapshots = {}             # unguarded write
"""

R3_GOOD = """
    import threading

    class Server:
        _GUARDED_BY = {"_snapshots": "_publish_lock"}

        def __init__(self):
            self._publish_lock = threading.Lock()
            self._snapshots = {}

        def generations(self):
            with self._publish_lock:
                return sorted(self._snapshots)

        def publish(self, generation, snapshot):
            with self._publish_lock:
                self._snapshots[generation] = snapshot
"""


def test_r3_catches_unguarded_access(tmp_path):
    findings = lint_fixture(tmp_path, {"pkg/bad.py": R3_BAD})
    assert rules_of(findings) == ["R3"]
    messages = [f.message for f in findings]
    assert any(m.startswith("read of guarded attribute self._snapshots") for m in messages)
    assert any(m.startswith("write of guarded attribute self._snapshots") for m in messages)
    assert len(findings) == 2


def test_r3_good_fixture_is_clean(tmp_path):
    assert lint_fixture(tmp_path, {"pkg/good.py": R3_GOOD}) == []


def test_r3_wrong_lock_does_not_count(tmp_path):
    source = """
        import threading

        class Server:
            _GUARDED_BY = {"_snapshots": "_publish_lock"}

            def __init__(self):
                self._publish_lock = threading.Lock()
                self._stats_lock = threading.Lock()
                self._snapshots = {}

            def generations(self):
                with self._stats_lock:
                    return sorted(self._snapshots)
    """
    findings = lint_fixture(tmp_path, {"pkg/bad.py": source})
    assert rules_of(findings) == ["R3"]


# -- pragmas -----------------------------------------------------------------


def test_line_pragma_suppresses_single_rule(tmp_path):
    source = """
        import random

        def draw():
            return random.Random()  # reprolint: disable=R1
    """
    assert lint_fixture(tmp_path, {"pkg/ok.py": source}) == []


def test_line_pragma_does_not_leak_to_other_lines(tmp_path):
    source = """
        import random

        def draw():
            a = random.Random()  # reprolint: disable=R1
            b = random.Random()
            return a, b
    """
    findings = lint_fixture(tmp_path, {"pkg/part.py": source})
    assert len(findings) == 1


def test_file_pragma_suppresses_whole_file(tmp_path):
    source = """
        # reprolint: disable-file=R1
        import random

        def draw():
            return random.Random(), random.random()
    """
    assert lint_fixture(tmp_path, {"pkg/ok.py": source}) == []


def test_disable_all_pragma(tmp_path):
    source = """
        import random

        def draw():
            return random.Random()  # reprolint: disable=all
    """
    assert lint_fixture(tmp_path, {"pkg/ok.py": source}) == []


def test_pragma_for_other_rule_does_not_suppress(tmp_path):
    source = """
        import random

        def draw():
            return random.Random()  # reprolint: disable=R2
    """
    findings = lint_fixture(tmp_path, {"pkg/bad.py": source})
    assert rules_of(findings) == ["R1"]


# -- selection and errors ----------------------------------------------------


def test_select_limits_rules(tmp_path):
    findings = lint_fixture(tmp_path, {"pkg/bad.py": R1_BAD}, select=["R2"])
    assert findings == []


def test_unknown_rule_raises_usage_error(tmp_path):
    (tmp_path / "mod.py").write_text("x = 1\n")
    with pytest.raises(LintUsageError):
        lint_paths([tmp_path], select=["R9"])


def test_missing_path_raises_usage_error():
    with pytest.raises(LintUsageError):
        lint_paths(["does/not/exist"])


# -- CLI contract ------------------------------------------------------------


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import random\nx = random.Random()\n")
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    assert reprolint_main([str(clean)]) == 0
    assert reprolint_main([str(bad)]) == 1
    assert reprolint_main(["--select", "R9", str(clean)]) == 2
    capsys.readouterr()


def test_cli_json_output_schema(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import random\nx = random.Random()\n")
    assert reprolint_main(["--format", "json", str(bad)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == 1
    assert payload["files_checked"] == 1
    (finding,) = payload["findings"]
    assert set(finding) == {"rule", "path", "line", "col", "message"}
    assert finding["rule"] == "R1"
    assert finding["line"] == 2


def test_cli_human_output_format(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import random\nx = random.Random()\n")
    assert reprolint_main([str(bad)]) == 1
    out = capsys.readouterr().out
    assert f"{bad.as_posix()}:2:" in out
    assert "R1:" in out
    assert "1 finding in 1 files" in out


def test_cli_list_rules(capsys):
    assert reprolint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("R1", "R2", "R3"):
        assert rule_id in out


# -- repo-wide smoke ---------------------------------------------------------


def test_repository_lints_clean():
    """The tree itself must satisfy its own invariants (acceptance gate)."""
    findings, files_checked = lint_paths(
        [REPO_ROOT / "src", REPO_ROOT / "scripts", REPO_ROOT / "examples"]
    )
    assert findings == [], "\n".join(f.format_human() for f in findings)
    assert files_checked > 90  # the whole tree, not a subset


def test_repository_lints_clean_on_a_bare_interpreter():
    """The CI lint job installs nothing: the linter must import and pass with
    no site-packages (so no numpy) and no PYTHONPATH."""
    result = subprocess.run(
        [sys.executable, "-I", "-S", "scripts/reprolint.py", "src", "scripts", "examples"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "reprolint: 0 findings" in result.stdout


def test_repository_declares_the_core_invariants():
    """The declarations the rules key on must stay present in the tree."""
    from repro.analysis_static.engine import LintContext, SourceFile

    sources = []
    for rel in (
        "src/repro/serving/server.py",
        "src/repro/serving/snapshot.py",
        "src/repro/addr/batch.py",
        "src/repro/core/apd.py",
    ):
        path = REPO_ROOT / rel
        sources.append(SourceFile.load(path, path.as_posix()))
    context = LintContext.collect(sources)
    assert context.guarded_by["HitlistServer"]["_snapshots"] == "_publish_lock"
    assert context.guarded_by["HitlistServer"]["_query_counts"] == "_stats_lock"
    assert context.frozen_arrays["AddressBatch"] == ("hi", "lo")
    assert "_start_keys" in context.frozen_arrays["FlatLPM"]
    assert "_responsive" in context.frozen_arrays["HitlistSnapshot"]
    assert context.frozen_arrays["APDResult"] == ("keys", "_outcomes", "verdicts")


def test_r1_covers_the_events_layer():
    """The sub-day dynamics modules sit under the determinism rule: they lint
    clean today, and an unseeded rng or wall-clock read there must fire R1."""
    events = REPO_ROOT / "src" / "repro" / "events"
    findings, files_checked = lint_paths([events], select=["R1"])
    assert files_checked >= 4  # __init__, scheduler, tokenbucket, dynamics
    assert findings == [], "\n".join(f.format_human() for f in findings)
