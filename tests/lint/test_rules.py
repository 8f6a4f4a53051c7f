"""Per-rule hit and no-false-positive cases, on synthetic snippets.

Each rule gets at least one snippet it must flag and one adjacent
snippet it must leave alone -- the no-false-positive cases pin the
*boundaries* of the rules (seeded instances, instance methods that
merely share a name with module functions, handlers with real bodies).
"""

from __future__ import annotations

import textwrap
from pathlib import Path
from typing import Dict, List

from repro.lint import lint_paths


def lint_tree(tmp_path: Path, files: Dict[str, str]) -> List[str]:
    """Write ``files`` (relative path -> source) and lint the tree."""
    for rel, source in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source), encoding="utf-8")
    return [d.code for d in lint_paths([str(tmp_path)])]


# -- RL001 ------------------------------------------------------------------


def test_rl001_flags_global_random(tmp_path):
    codes = lint_tree(tmp_path, {
        "mod.py": """\
            import random
            x = random.random()
        """,
    })
    assert codes == ["RL001"]


def test_rl001_flags_numpy_global(tmp_path):
    codes = lint_tree(tmp_path, {
        "mod.py": """\
            import numpy as np
            x = np.random.randint(10)
        """,
    })
    assert codes == ["RL001"]


def test_rl001_allows_seeded_random_and_instances(tmp_path):
    codes = lint_tree(tmp_path, {
        "mod.py": """\
            import random
            rng = random.Random(42)
            y = rng.random()
        """,
    })
    assert codes == []


def test_rl001_allows_rng_module_itself(tmp_path):
    codes = lint_tree(tmp_path, {
        "sim/rng.py": """\
            import numpy as np
            g = np.random.default_rng(np.random.SeedSequence(7))
        """,
    })
    assert codes == []


def test_rl001_ignores_instance_methods_named_like_module(tmp_path):
    # `self.random.choice(...)` has a non-module root: not a global draw.
    codes = lint_tree(tmp_path, {
        "mod.py": """\
            import random

            class Holder:
                def __init__(self):
                    self.random = random.Random(1)

                def pick(self, items):
                    return self.random.choice(items)
        """,
    })
    assert codes == []


# -- RL002 ------------------------------------------------------------------


def test_rl002_flags_wall_clock_in_scoped_dirs(tmp_path):
    codes = lint_tree(tmp_path, {
        "device/driver.py": """\
            import time
            t = time.monotonic()
        """,
    })
    assert codes == ["RL002"]


def test_rl002_flags_datetime_now(tmp_path):
    codes = lint_tree(tmp_path, {
        "core/proto.py": """\
            from datetime import datetime
            t = datetime.now()
        """,
    })
    assert codes == ["RL002"]


def test_rl002_ignores_unscoped_packages(tmp_path):
    # Experiments report generation may legitimately stamp wall time.
    codes = lint_tree(tmp_path, {
        "experiments/report.py": """\
            import time
            t = time.time()
        """,
    })
    assert codes == []


def test_rl002_ignores_sim_time_attributes(tmp_path):
    codes = lint_tree(tmp_path, {
        "sim/engine.py": """\
            class Simulator:
                def __init__(self):
                    self.time = 0.0

                def advance(self, dt):
                    self.time += dt
        """,
    })
    assert codes == []


# -- RL004 ------------------------------------------------------------------


def test_rl004_flags_runtime_error(tmp_path):
    codes = lint_tree(tmp_path, {
        "mod.py": """\
            def f():
                raise RuntimeError("boom")
        """,
    })
    assert codes == ["RL004"]


def test_rl004_allows_hierarchy_and_validation_builtins(tmp_path):
    codes = lint_tree(tmp_path, {
        "errors.py": """\
            class ReproError(Exception):
                pass

            class DeviceError(ReproError):
                pass
        """,
        "mod.py": """\
            from .errors import DeviceError

            def f(n):
                if n < 0:
                    raise ValueError("n must be >= 0")
                raise DeviceError("device gone")
        """,
    })
    assert codes == []


def test_rl004_fixpoint_allows_transitive_subclasses(tmp_path):
    codes = lint_tree(tmp_path, {
        "errors.py": """\
            class ReproError(Exception):
                pass
        """,
        "mod.py": """\
            from .errors import ReproError

            class LocalError(ReproError):
                pass

            class DeeperError(LocalError):
                pass

            def f():
                raise DeeperError("fine")
        """,
    })
    assert codes == []


def test_rl004_skips_rebound_instances(tmp_path):
    codes = lint_tree(tmp_path, {
        "mod.py": """\
            def f(op):
                try:
                    op()
                except ValueError as exc:
                    raise exc
        """,
    })
    assert codes == []


# -- RL005 ------------------------------------------------------------------


def test_rl005_flags_time_equality(tmp_path):
    codes = lint_tree(tmp_path, {
        "mod.py": """\
            def same_instant(start_time, end_time):
                return start_time == end_time
        """,
    })
    assert codes == ["RL005"]


def test_rl005_allows_inequalities_and_other_names(tmp_path):
    codes = lint_tree(tmp_path, {
        "mod.py": """\
            def ordered(start_time, end_time, count):
                return start_time < end_time and count == 3
        """,
    })
    assert codes == []


def test_rl005_excludes_timeout_like_names(tmp_path):
    codes = lint_tree(tmp_path, {
        "mod.py": """\
            def no_timeout(timeout):
                return timeout == 0
        """,
    })
    assert codes == []


# -- RL006 ------------------------------------------------------------------


def test_rl006_flags_bare_except(tmp_path):
    codes = lint_tree(tmp_path, {
        "mod.py": """\
            def f(op):
                try:
                    return op()
                except:
                    return None
        """,
    })
    assert codes == ["RL006"]


def test_rl006_flags_swallowed_exception(tmp_path):
    codes = lint_tree(tmp_path, {
        "mod.py": """\
            def f(op):
                try:
                    return op()
                except Exception:
                    pass
        """,
    })
    assert codes == ["RL006"]


def test_rl006_allows_narrow_and_handled(tmp_path):
    codes = lint_tree(tmp_path, {
        "mod.py": """\
            def f(op, log):
                try:
                    return op()
                except ValueError:
                    pass
                except Exception as exc:
                    log(exc)
                    raise
        """,
    })
    assert codes == []


# -- RL007 ------------------------------------------------------------------


def test_rl007_flags_mutable_defaults(tmp_path):
    codes = lint_tree(tmp_path, {
        "mod.py": """\
            def f(xs=[], *, opts={}):
                return xs, opts
        """,
    })
    assert codes == ["RL007", "RL007"]


def test_rl007_allows_none_and_immutable_defaults(tmp_path):
    codes = lint_tree(tmp_path, {
        "mod.py": """\
            def f(xs=None, scale=1.0, name=""):
                return xs, scale, name
        """,
    })
    assert codes == []


# -- RL008 ------------------------------------------------------------------


def test_rl008_flags_view_field_mutation_outside_membership(tmp_path):
    codes = lint_tree(tmp_path, {
        "core/proto.py": """\
            def bump(view):
                view.epoch = view.epoch + 1
        """,
    })
    assert codes == ["RL008"]


def test_rl008_flags_augmented_and_annotated_assignment(tmp_path):
    codes = lint_tree(tmp_path, {
        "faults/mod.py": """\
            def grow(view, extra):
                view.sites += extra
                view.votes: tuple = ()
        """,
    })
    assert codes == ["RL008", "RL008"]


def test_rl008_allows_membership_package_itself(tmp_path):
    codes = lint_tree(tmp_path, {
        "membership/manager.py": """\
            def splice(view, sites):
                view.sites = tuple(sites)
        """,
    })
    assert codes == []


def test_rl008_allows_own_fields_in_constructors(tmp_path):
    # A cluster legitimately *owns* a `sites` attribute; initialising
    # it in __init__ is not a view mutation.
    codes = lint_tree(tmp_path, {
        "device/cluster.py": """\
            class Cluster:
                def __init__(self, sites):
                    self.sites = list(sites)
        """,
    })
    assert codes == []


def test_rl008_still_flags_mutation_after_construction(tmp_path):
    codes = lint_tree(tmp_path, {
        "device/cluster.py": """\
            class Cluster:
                def __init__(self, view):
                    self.view = view

                def shrink(self):
                    self.view.sites = ()
        """,
    })
    assert codes == ["RL008"]


# -- RL009 ------------------------------------------------------------------


def test_rl009_flags_site_keyed_dict_in_core_function(tmp_path):
    codes = lint_tree(tmp_path, {
        "core/proto.py": """\
            from typing import Dict

            def collect(network) -> None:
                replies: Dict[SiteId, int] = {}
                replies[0] = 1
        """,
    })
    assert codes == ["RL009"]


def test_rl009_flags_nested_site_keyed_dict(tmp_path):
    codes = lint_tree(tmp_path, {
        "core/proto.py": """\
            from typing import Dict

            def batch(blocks):
                per_block: Dict[BlockIndex, Dict[SiteId, int]] = {}
                return per_block
        """,
    })
    assert codes == ["RL009"]


def test_rl009_allows_init_and_non_core_and_other_keys(tmp_path):
    codes = lint_tree(tmp_path, {
        # __init__ setup tables are exempt.
        "core/proto.py": """\
            from typing import Dict

            class P:
                def __init__(self, sites):
                    self.pos: Dict[SiteId, int] = {}
        """,
        # Outside repro/core the pattern is fine.
        "net/network.py": """\
            from typing import Dict

            def route(pairs):
                table: Dict[SiteId, int] = {}
                return table
        """,
        # Dicts keyed by something else are fine anywhere.
        "core/other.py": """\
            from typing import Dict

            def tally(blocks):
                tops: Dict[BlockIndex, int] = {}
                return tops
        """,
    })
    assert codes == []


def test_rl009_suppressible_with_noqa(tmp_path):
    codes = lint_tree(tmp_path, {
        "core/proto.py": """\
            from typing import Dict

            def slow_path(network):
                replies: Dict[SiteId, int] = {}  # repro: noqa[RL009]
                return replies
        """,
    })
    assert codes == []


def test_rl009_flags_broadcast_query_in_core(tmp_path):
    """An unannotated reply dict from broadcast_query is caught too."""
    codes = lint_tree(tmp_path, {
        "core/proto.py": """\
            def probe(self, site):
                replies = self.network.broadcast_query(site, 1, 2, None)
                return max(replies)
        """,
    })
    assert codes == ["RL009"]


def test_rl009_allows_broadcast_query_outside_core_and_round(tmp_path):
    codes = lint_tree(tmp_path, {
        # Scrub and membership catch-up live outside repro/core.
        "device/scrub.py": """\
            def audit(protocol, site):
                return protocol.network.broadcast_query(site, 1, 2, None)
        """,
        "core/proto.py": """\
            def probe(self, site, rnd):
                self.network.broadcast_round(site, 1, 2, None, None, rnd)
                return rnd.count
        """,
    })
    assert codes == []


# -- RL010 ------------------------------------------------------------------


def test_rl010_flags_every_identity_and_equality_form(tmp_path):
    codes = lint_tree(tmp_path, {
        "device/cluster.py": """\
            from repro import types
            from repro.types import SchemeName

            def build(scheme):
                if scheme is SchemeName.VOTING:
                    return 1
                if scheme is not SchemeName.AVAILABLE_COPY:
                    return 2
                if SchemeName.VOTING == scheme:
                    return 3
                return scheme != types.SchemeName.VOTING
        """,
    })
    assert codes == ["RL010"] * 4


def test_rl010_allows_the_record_module_lookups_and_other_enums(tmp_path):
    codes = lint_tree(tmp_path, {
        "schemes.py": """\
            from repro.types import SchemeName

            def voting(scheme):
                return scheme is SchemeName.VOTING
        """,
        "faults/chaos.py": """\
            from repro.schemes import SCHEMES
            from repro.types import SchemeName, SiteState

            def build(config, site):
                record = SCHEMES[config.scheme]
                schemes = [SchemeName.VOTING, SchemeName.AVAILABLE_COPY]
                up = site.state is SiteState.AVAILABLE
                return record, schemes, up, config.scheme in schemes
        """,
    })
    assert codes == []


def test_rl010_suppressible_with_noqa(tmp_path):
    codes = lint_tree(tmp_path, {
        "faults/chaos.py": """\
            from repro.types import SchemeName

            def build(config):
                if config.scheme is SchemeName.VOTING:  # repro: noqa[RL010]
                    return 1
                return 0
        """,
    })
    assert codes == []
